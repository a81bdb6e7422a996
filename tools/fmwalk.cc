// fmwalk — command-line front end for the FlashMob walk engine.
//
// Usage:
//   fmwalk --graph=edges.txt [options]
//   fmwalk --csr=graph.csr --mmap --algo=node2vec --p=0.25 --q=4 --out=paths.txt
//
// Options:
//   --graph=FILE      text edge list ("u v [w]" per line; '#'/'%' comments)
//   --csr=FILE        binary CSR (see SaveCsrBinary); --mmap walks it from disk
//   --undirected      symmetrize edges while loading
//   --algo=NAME       deepwalk (default) | node2vec | mh (Metropolis-Hastings:
//                     uniform stationary distribution for unbiased vertex sampling)
//   --steps=N         walk length                      (default 80)
//   --rounds=N        walkers = N * |V|                (default 10)
//   --walkers=N       explicit walker count (overrides --rounds)
//   --p=F --q=F       node2vec parameters              (default 1, 1)
//   --weighted        transition probability ~ edge weight (first-order only)
//   --stop=F          per-step stop probability (PPR-style termination)
//   --seed=N          RNG seed                         (default 1)
//   --out=FILE        write one walk per line (original vertex IDs)
//   --pairs=FILE      write sampled edges "u v" per line instead of full paths
//   --stats           print visit statistics by degree bucket (Table 2 style)
//   --profile         print a per-step stage breakdown (scatter/sample/gather
//                     seconds and the per-VP walker spread) from the engine's
//                     structured step records
//   --metrics-json=F  write the fm-metrics-v1 observability JSON to F: run
//                     metadata, per-stage hardware counters (perf_event_open;
//                     "backend": "noop" where unavailable), derived rates, and
//                     one entry per (episode, step)
//   --trace-json=F    record structured spans (graph load, plan solve, per-step
//                     scatter/sample/gather, per-VP sample chunks, shuffle
//                     chunks, observer merges) and write Chrome trace-event /
//                     Perfetto JSON to F — open it in ui.perfetto.dev or feed
//                     it to `fmtrace`
//   --telemetry-jsonl=F       append one fm-telemetry-v1 JSON line to F every
//                     interval while the walk runs (background snapshot
//                     thread), plus a final line with the end-of-run cumulative
//                     values; tail it live with `fmmon F` or summarize with
//                     `fmmon --summary F`
//   --telemetry-interval-ms=N snapshot interval for --telemetry-jsonl
//                     (default 1000)
//   --progress[=SEC]  live heartbeat to stderr every SEC seconds (default 10):
//                     episode/step position, live walkers, steps/sec, ETA, and
//                     the dropped-span count; driven from the engine's per-step
//                     barrier (no extra thread)
//   --threads=N       worker threads (default: all cores; or FM_THREADS)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "src/fm.h"

namespace {

using namespace fm;

struct Args {
  std::string graph_path;
  std::string csr_path;
  bool use_mmap = false;
  bool undirected = false;
  std::string algo = "deepwalk";
  uint32_t steps = 80;
  uint32_t rounds = 10;
  uint64_t walkers = 0;
  double p = 1.0;
  double q = 1.0;
  bool weighted = false;
  double stop = 0.0;
  uint64_t seed = 1;
  std::string out_path;
  std::string pairs_path;
  std::string metrics_path;
  std::string trace_path;
  std::string telemetry_path;
  uint32_t telemetry_interval_ms = 1000;
  bool progress = false;
  double progress_interval_s = 10.0;
  bool stats = false;
  bool profile = false;
};

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

int Usage(const char* self) {
  std::fprintf(stderr,
               "usage: %s --graph=edges.txt | --csr=graph.csr [--mmap] "
               "[--algo=deepwalk|node2vec]\n"
               "  [--steps=N] [--rounds=N] [--walkers=N] [--p=F] [--q=F] "
               "[--weighted] [--stop=F]\n"
               "  [--seed=N] [--out=paths.txt] [--pairs=pairs.txt] [--stats] "
               "[--profile] [--metrics-json=metrics.json]\n"
               "  [--trace-json=trace.json] [--telemetry-jsonl=out.jsonl] "
               "[--telemetry-interval-ms=N] [--progress[=SECONDS]]\n",
               self);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    const char* a = argv[i];
    if (ParseFlag(a, "--graph", &value)) {
      args.graph_path = value;
    } else if (ParseFlag(a, "--csr", &value)) {
      args.csr_path = value;
    } else if (std::strcmp(a, "--mmap") == 0) {
      args.use_mmap = true;
    } else if (std::strcmp(a, "--undirected") == 0) {
      args.undirected = true;
    } else if (ParseFlag(a, "--algo", &value)) {
      args.algo = value;
    } else if (ParseFlag(a, "--steps", &value)) {
      args.steps = static_cast<uint32_t>(std::stoul(value));
    } else if (ParseFlag(a, "--rounds", &value)) {
      args.rounds = static_cast<uint32_t>(std::stoul(value));
    } else if (ParseFlag(a, "--walkers", &value)) {
      args.walkers = std::stoull(value);
    } else if (ParseFlag(a, "--p", &value)) {
      args.p = std::stod(value);
    } else if (ParseFlag(a, "--q", &value)) {
      args.q = std::stod(value);
    } else if (std::strcmp(a, "--weighted") == 0) {
      args.weighted = true;
    } else if (ParseFlag(a, "--stop", &value)) {
      args.stop = std::stod(value);
    } else if (ParseFlag(a, "--seed", &value)) {
      args.seed = std::stoull(value);
    } else if (ParseFlag(a, "--out", &value)) {
      args.out_path = value;
    } else if (ParseFlag(a, "--pairs", &value)) {
      args.pairs_path = value;
    } else if (ParseFlag(a, "--metrics-json", &value)) {
      args.metrics_path = value;
    } else if (ParseFlag(a, "--trace-json", &value)) {
      args.trace_path = value;
    } else if (ParseFlag(a, "--telemetry-jsonl", &value)) {
      args.telemetry_path = value;
    } else if (ParseFlag(a, "--telemetry-interval-ms", &value)) {
      args.telemetry_interval_ms = static_cast<uint32_t>(std::stoul(value));
    } else if (std::strcmp(a, "--progress") == 0) {
      args.progress = true;
    } else if (ParseFlag(a, "--progress", &value)) {
      args.progress = true;
      args.progress_interval_s = std::stod(value);
    } else if (std::strcmp(a, "--stats") == 0) {
      args.stats = true;
    } else if (std::strcmp(a, "--profile") == 0) {
      args.profile = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a);
      return Usage(argv[0]);
    }
  }
  if (args.graph_path.empty() == args.csr_path.empty()) {
    std::fprintf(stderr, "exactly one of --graph / --csr is required\n");
    return Usage(argv[0]);
  }
  if (args.algo != "deepwalk" && args.algo != "node2vec" && args.algo != "mh") {
    std::fprintf(stderr, "unknown --algo=%s\n", args.algo.c_str());
    return Usage(argv[0]);
  }
  if (args.weighted && args.algo != "deepwalk") {
    std::fprintf(stderr, "error: --weighted supports only --algo=deepwalk\n");
    return 1;
  }

  try {
    // Tracing starts before the load so graph I/O, degree sort, and the plan
    // solve all land in the trace alongside the walk itself.
    if (!args.trace_path.empty()) {
      Tracer::SetThisThreadName("main");
      Tracer::Get().Enable();
    }

    // ---- load -----------------------------------------------------------------
    Timer load_timer;
    CsrGraph raw;
    if (!args.graph_path.empty()) {
      raw = LoadEdgeListText(args.graph_path,
                             {.undirected = args.undirected,
                              .remove_self_loops = true,
                              .remove_zero_degree = true});
    } else if (args.use_mmap) {
      raw = LoadCsrBinaryMapped(args.csr_path);
    } else {
      raw = LoadCsrBinary(args.csr_path);
    }
    std::fprintf(stderr, "loaded |V|=%u |E|=%llu%s%s in %.2fs\n",
                 raw.num_vertices(),
                 static_cast<unsigned long long>(raw.num_edges()),
                 raw.weighted() ? " weighted" : "",
                 raw.memory_mapped() ? " (memory-mapped)" : "",
                 load_timer.Elapsed());
    // Inputs the engine would reject with a fatal check.
    const std::string& graph_name =
        !args.graph_path.empty() ? args.graph_path : args.csr_path;
    if (raw.num_vertices() == 0) {
      std::fprintf(stderr, "error: %s holds no vertices\n", graph_name.c_str());
      return 1;
    }
    if (args.weighted && !raw.weighted()) {
      std::fprintf(stderr, "error: --weighted, but %s has no edge weights\n",
                   graph_name.c_str());
      return 1;
    }

    // ---- pre-process (degree sort) ---------------------------------------------
    Timer sort_timer;
    DegreeSortedGraph sorted = DegreeSort(raw);
    std::fprintf(stderr, "degree sort: %.2fs\n", sort_timer.Elapsed());

    // ---- walk -------------------------------------------------------------------
    WalkSpec spec;
    spec.algorithm = args.algo == "node2vec"
                         ? WalkAlgorithm::kNode2Vec
                         : (args.algo == "mh" ? WalkAlgorithm::kMetropolisHastings
                                              : WalkAlgorithm::kDeepWalk);
    spec.steps = args.steps;
    spec.num_walkers =
        args.walkers != 0
            ? args.walkers
            : static_cast<Wid>(args.rounds) * sorted.graph.num_vertices();
    spec.node2vec = {args.p, args.q};
    spec.use_edge_weights = args.weighted;
    spec.stop_probability = args.stop;
    spec.seed = args.seed;
    spec.keep_paths = !args.out_path.empty() || !args.pairs_path.empty();

    EngineOptions engine_options;
    engine_options.record_step_stats = args.profile || !args.metrics_path.empty();
    engine_options.collect_counters = !args.metrics_path.empty();
    ProgressReporter progress(args.progress_interval_s);
    if (args.progress) {
      engine_options.progress = &progress;
    }
    // Telemetry snapshots cover the walk itself; Stop() before the metrics
    // JSON is written, so the file's final line and fm-metrics-v1 both hold
    // the same end-of-run counter values.
    telemetry::TelemetrySnapshotWriter telemetry_writer(
        args.telemetry_path, args.telemetry_interval_ms);
    if (!args.telemetry_path.empty() && !telemetry_writer.Start()) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   args.telemetry_path.c_str());
      return 1;
    }
    FlashMobEngine engine(sorted.graph, engine_options);
    WalkResult result = engine.Run(spec);
    telemetry_writer.Stop();
    if (!args.telemetry_path.empty()) {
      std::fprintf(stderr,
                   "wrote %llu telemetry snapshots to %s — summarize with: "
                   "fmmon --summary %s\n",
                   static_cast<unsigned long long>(
                       telemetry_writer.lines_written()),
                   args.telemetry_path.c_str(), args.telemetry_path.c_str());
    }
    if (!args.trace_path.empty()) {
      Tracer& tracer = Tracer::Get();
      tracer.Disable();
      if (!tracer.WriteJson(args.trace_path)) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     args.trace_path.c_str());
        return 1;
      }
      std::fprintf(stderr,
                   "wrote %llu spans (%llu dropped) to %s — open in "
                   "ui.perfetto.dev or run: fmtrace %s\n",
                   static_cast<unsigned long long>(tracer.TotalEvents()),
                   static_cast<unsigned long long>(tracer.TotalDropped()),
                   args.trace_path.c_str(), args.trace_path.c_str());
    }
    std::fprintf(stderr,
                 "walked %llu steps in %.2fs: %.1f ns/step "
                 "(sample %.2fs, shuffle %.2fs, other %.2fs, "
                 "%u episodes)\n",
                 static_cast<unsigned long long>(result.stats.total_steps),
                 result.stats.times.Total(), result.stats.PerStepNs(),
                 result.stats.times.sample_s, result.stats.times.shuffle_s,
                 result.stats.times.other_s, result.stats.episodes);
    // Per-step wall-time spread from the telemetry histogram the engine fills
    // at stage barriers — the same source every exporter reads, so this line
    // can never disagree with --telemetry-jsonl (stats::Percentile over an
    // ad-hoc vector of step times would be a second, divergent aggregation).
    {
      telemetry::HistogramSnapshot step_ns =
          telemetry::TelemetryRegistry::Get()
              .HistogramRef("fm.engine.step_ns")
              .Snapshot();
      if (step_ns.count > 0) {
        std::fprintf(stderr,
                     "per-step wall time: mean %.0f ns, p50 %.0f, p99 %.0f "
                     "(%llu steps, log2 buckets)\n",
                     step_ns.Mean(), step_ns.Percentile(50),
                     step_ns.Percentile(99),
                     static_cast<unsigned long long>(step_ns.count));
      }
    }

    // ---- output ------------------------------------------------------------------
    if (!args.metrics_path.empty()) {
      MetricsMeta meta;
      meta.tool = "fmwalk";
      meta.graph = !args.graph_path.empty() ? args.graph_path : args.csr_path;
      meta.algorithm = args.algo;
      meta.seed = args.seed;
      meta.threads = ThreadPool::Global().thread_count();
      if (!WriteWalkMetricsJson(args.metrics_path, meta, result.stats,
                                &engine.plan())) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     args.metrics_path.c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote metrics (backend=%s) to %s\n",
                   result.stats.perf_backend.empty()
                       ? "off"
                       : result.stats.perf_backend.c_str(),
                   args.metrics_path.c_str());
    }
    if (!args.out_path.empty()) {
      std::ofstream out(args.out_path);
      for (Wid w = 0; w < result.paths.num_walkers(); ++w) {
        auto path = result.paths.Path(w);
        for (size_t i = 0; i < path.size(); ++i) {
          out << (i == 0 ? "" : " ") << sorted.new_to_old[path[i]];
        }
        out << '\n';
      }
      std::fprintf(stderr, "wrote %llu walks to %s\n",
                   static_cast<unsigned long long>(result.paths.num_walkers()),
                   args.out_path.c_str());
    }
    if (!args.pairs_path.empty()) {
      std::ofstream out(args.pairs_path);
      uint64_t pairs = 0;
      result.paths.StreamEdges([&](Vid from, Vid to) {
        out << sorted.new_to_old[from] << ' ' << sorted.new_to_old[to] << '\n';
        ++pairs;
      });
      std::fprintf(stderr, "wrote %llu sampled edges to %s\n",
                   static_cast<unsigned long long>(pairs),
                   args.pairs_path.c_str());
    }
    if (args.profile) {
      std::printf("%3s %4s %10s %10s %10s %12s %12s %12s\n", "ep", "step",
                  "scatter_ms", "sample_ms", "gather_ms", "live", "min vp",
                  "max vp");
      for (const StepStageRecord& rec : result.stats.step_records) {
        Wid min_vp = 0;
        Wid max_vp = 0;
        if (!rec.vp_walkers.empty()) {
          auto [lo, hi] =
              std::minmax_element(rec.vp_walkers.begin(), rec.vp_walkers.end());
          min_vp = *lo;
          max_vp = *hi;
        }
        std::printf("%3llu %4u %10.3f %10.3f %10.3f %12llu %12llu %12llu\n",
                    static_cast<unsigned long long>(rec.episode), rec.step,
                    rec.scatter_s * 1e3, rec.sample_s * 1e3, rec.gather_s * 1e3,
                    static_cast<unsigned long long>(rec.live_walkers),
                    static_cast<unsigned long long>(min_vp),
                    static_cast<unsigned long long>(max_vp));
      }
    }
    if (args.stats) {
      DegreeBucketStats stats =
          ComputeDegreeBucketStats(sorted.graph, result.visit_counts);
      std::printf("%-10s %12s %10s %10s\n", "bucket", "avg degree", "edges%",
                  "visits%");
      const char* names[4] = {"<1%", "1-5%", "5-25%", "25-100%"};
      for (size_t b = 0; b < kDegreeBuckets; ++b) {
        std::printf("%-10s %12.1f %9.1f%% %9.1f%%\n", names[b],
                    stats.avg_degree[b], stats.edge_share[b] * 100,
                    stats.visit_share[b] * 100);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
