// Shared helpers for the per-experiment bench binaries.
//
// Every binary runs with no arguments at CI-friendly sizes and prints the rows /
// series of its paper table or figure. Environment knobs (see README):
//   FM_SCALE    multiplies the stand-in graph sizes        (default 1.0)
//   FM_STEPS    walk length per walker                     (default 24)
//   FM_ROUNDS   walkers = FM_ROUNDS * |V|                  (default 1)
//   FM_THREADS  worker threads                             (default: all cores)
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "src/fm.h"
#include "src/util/env.h"

namespace fm {

// Bench command-line arguments. --metrics-json=FILE asks the binary to write
// its fm-bench-trajectory-v1 JSON (timing points plus hardware-counter samples
// where the perf backend is live); --trace-json=FILE records structured spans
// for the whole run and writes Chrome trace-event / Perfetto JSON on exit (see
// src/util/trace.h and `fmtrace`); --telemetry-jsonl=FILE appends live
// fm-telemetry-v1 registry snapshots every --telemetry-interval-ms (default
// 1000) for `fmmon`. Unknown arguments exit with usage so CI typos fail
// loudly.
struct BenchArgs {
  std::string metrics_path;
  std::string trace_path;
  std::string telemetry_path;
  uint32_t telemetry_interval_ms = 1000;
};

inline BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  const char* metrics_prefix = "--metrics-json=";
  const char* trace_prefix = "--trace-json=";
  const char* telemetry_prefix = "--telemetry-jsonl=";
  const char* interval_prefix = "--telemetry-interval-ms=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], metrics_prefix, std::strlen(metrics_prefix)) ==
        0) {
      args.metrics_path = argv[i] + std::strlen(metrics_prefix);
    } else if (std::strncmp(argv[i], trace_prefix, std::strlen(trace_prefix)) ==
               0) {
      args.trace_path = argv[i] + std::strlen(trace_prefix);
    } else if (std::strncmp(argv[i], telemetry_prefix,
                            std::strlen(telemetry_prefix)) == 0) {
      args.telemetry_path = argv[i] + std::strlen(telemetry_prefix);
    } else if (std::strncmp(argv[i], interval_prefix,
                            std::strlen(interval_prefix)) == 0) {
      args.telemetry_interval_ms = static_cast<uint32_t>(
          std::strtoul(argv[i] + std::strlen(interval_prefix), nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "unknown argument: %s (supported: --metrics-json=FILE "
                   "--trace-json=FILE --telemetry-jsonl=FILE "
                   "--telemetry-interval-ms=N)\n",
                   argv[i]);
      std::exit(2);
    }
  }
  return args;
}

// Starts the background registry-snapshot thread when --telemetry-jsonl was
// given. Returns the writer (inert when the flag is absent); callers let it go
// out of scope at the end of main (the destructor stops the thread and writes
// the final cumulative line) or call Stop() explicitly before reading files.
inline std::unique_ptr<telemetry::TelemetrySnapshotWriter>
MakeBenchTelemetryWriter(const BenchArgs& args) {
  auto writer = std::make_unique<telemetry::TelemetrySnapshotWriter>(
      args.telemetry_path, args.telemetry_interval_ms);
  if (!args.telemetry_path.empty() && !writer->Start()) {
    std::fprintf(stderr, "error: cannot write %s\n",
                 args.telemetry_path.c_str());
    std::exit(1);
  }
  return writer;
}

// Enables span recording when --trace-json was given. Call before the first
// timed work so graph generation and plan solves land in the trace too.
inline void MaybeStartTrace(const BenchArgs& args) {
  if (args.trace_path.empty()) {
    return;
  }
  Tracer::SetThisThreadName("main");
  Tracer::Get().Enable();
}

// Writes the trace recorded since MaybeStartTrace; exits non-zero on I/O
// failure (same contract as MaybeWriteTrajectory).
inline void MaybeWriteTrace(const BenchArgs& args) {
  if (args.trace_path.empty()) {
    return;
  }
  Tracer& tracer = Tracer::Get();
  tracer.Disable();
  if (!tracer.WriteJson(args.trace_path)) {
    std::fprintf(stderr, "error: cannot write %s\n", args.trace_path.c_str());
    std::exit(1);
  }
  std::fprintf(stderr, "wrote %llu spans (%llu dropped) to %s\n",
               static_cast<unsigned long long>(tracer.TotalEvents()),
               static_cast<unsigned long long>(tracer.TotalDropped()),
               args.trace_path.c_str());
}

// Writes `traj` to `path` unless path is empty; exits non-zero on I/O failure
// so a CI job uploading the artifact cannot silently pass without it.
inline void MaybeWriteTrajectory(const BenchTrajectory& traj,
                                 const std::string& path) {
  if (path.empty()) {
    return;
  }
  if (!traj.WriteJson(path)) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(stderr, "wrote bench trajectory to %s\n", path.c_str());
}

inline uint32_t BenchSteps() {
  return static_cast<uint32_t>(EnvInt64("FM_STEPS", 16));
}

// Paper standard is 10 rounds of |V| walkers (§5.1); default 4 keeps the full
// bench suite CI-friendly while staying in the density regime FlashMob targets.
inline uint32_t BenchRounds() {
  return static_cast<uint32_t>(EnvInt64("FM_ROUNDS", 4));
}

// Machine-calibrated cost model shared by all benches (the paper's offline
// profiling, §4.4): measured once, cached in ./fm_profile.txt, reused across
// graphs and runs.
inline const CostModel& BenchCostModel() {
  static CalibratedCostModel model = CalibratedCostModel::LoadOrCalibrate(
      EnvString("FM_PROFILE", "fm_profile.txt"), DetectCacheInfo(),
      ThreadPool::Global().thread_count());
  return model;
}

// Performance-measurement spec: no path retention, no visit counting.
inline WalkSpec PerfSpec(const CsrGraph& graph,
                         WalkAlgorithm algorithm = WalkAlgorithm::kDeepWalk) {
  WalkSpec spec;
  spec.algorithm = algorithm;
  spec.steps = BenchSteps();
  spec.num_walkers = static_cast<Wid>(BenchRounds()) * graph.num_vertices();
  spec.keep_paths = false;
  if (algorithm == WalkAlgorithm::kNode2Vec) {
    spec.node2vec = {2.0, 0.5};  // common node2vec setting
  }
  return spec;
}

inline EngineOptions PerfEngineOptions() {
  EngineOptions options;
  options.count_visits = false;
  options.cost_model = &BenchCostModel();
  options.plan.cache = DetectCacheInfo();
  return options;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline const char* PolicyName(SamplePolicy policy) {
  return policy == SamplePolicy::kPS ? "PS" : "DS";
}

inline std::string HumanBytes(uint64_t bytes) {
  char buf[64];
  if (bytes >= (1ull << 30)) {
    std::snprintf(buf, sizeof(buf), "%.1fGB", bytes / 1073741824.0);
  } else if (bytes >= (1ull << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1fMB", bytes / 1048576.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fKB", bytes / 1024.0);
  }
  return buf;
}

}  // namespace fm

#endif  // BENCH_BENCH_UTIL_H_
