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
#include <string>

#include "src/fm.h"
#include "src/util/env.h"

namespace fm {

// Bench command-line arguments. --metrics-json=FILE asks the binary to write
// its fm-bench-trajectory-v1 JSON (timing points plus hardware-counter samples
// where the perf backend is live). Unknown arguments exit with usage so CI
// typos fail loudly.
struct BenchArgs {
  std::string metrics_path;
};

inline BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  const char* metrics_prefix = "--metrics-json=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], metrics_prefix, std::strlen(metrics_prefix)) ==
        0) {
      args.metrics_path = argv[i] + std::strlen(metrics_prefix);
    } else {
      std::fprintf(stderr,
                   "unknown argument: %s (supported: --metrics-json=FILE)\n",
                   argv[i]);
      std::exit(2);
    }
  }
  return args;
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
