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
//   --p=F --q=F       node2vec parameters, read only by --algo=node2vec
//                     (default 1, 1)
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
//   --trace-json=F    write the run as Chrome trace-event JSON to F, rendered
//                     from its WalkStats like --metrics-json: fmwalk's phases
//                     (load, degree sort, run, output), one span per episode,
//                     and per step the scatter (count and scatter passes),
//                     sample and gather seconds of --profile. Turns on the
//                     step records; open F in ui.perfetto.dev
//   --progress[=SEC]  live heartbeat to stderr every SEC seconds (default 10):
//                     episode/step position, live walkers, steps/sec and ETA;
//                     driven from the engine's per-step barrier (no extra
//                     thread)
//
// FM_THREADS sets the worker thread count (default: all cores).
//
// A malformed number (not the whole value, or out of range) exits 2; a walker
// count of 0 (--rounds=0 without --walkers, or --walkers=0) exits 1. A spec
// that fails CheckWalkSpec (src/core/walk_spec.h) exits 1 after the load,
// with its message as the one error line.
// A node2vec run also prints its accept-test tallies (WalkStats::node2vec).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/fm.h"
#include "tools/cli_flags.h"

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
  std::optional<uint64_t> walkers;  // overrides rounds when given
  double p = 1.0;
  double q = 1.0;
  bool weighted = false;
  double stop = 0.0;
  uint64_t seed = 1;
  std::string out_path;
  std::string pairs_path;
  std::string metrics_path;
  std::string trace_path;
  bool progress = false;
  double progress_interval_s = 10.0;
  bool stats = false;
  bool profile = false;
};

// Prints the one error line for an output file that cannot be written and
// returns fmwalk's exit status for it.
int CannotWrite(const std::string& path) {
  std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
  return 1;
}

int Usage(const char* self) {
  std::fprintf(stderr,
               "usage: %s --graph=edges.txt | --csr=graph.csr [--mmap] "
               "[--algo=deepwalk|node2vec|mh]\n"
               "  [--steps=N] [--rounds=N] [--walkers=N] [--p=F] [--q=F] "
               "[--weighted] [--stop=F]\n"
               "  [--seed=N] [--out=paths.txt] [--pairs=pairs.txt] [--stats] "
               "[--profile] [--metrics-json=metrics.json]\n"
               "  [--trace-json=trace.json] [--progress[=SECONDS]]\n",
               self);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    const char* a = argv[i];
    // Numeric flags: a malformed value is a usage error (exit 2).
    bool number_ok = true;
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
      number_ok = ParseNumber(a, value, &args.steps);
    } else if (ParseFlag(a, "--rounds", &value)) {
      number_ok = ParseNumber(a, value, &args.rounds);
    } else if (ParseFlag(a, "--walkers", &value)) {
      number_ok = ParseNumber(a, value, &args.walkers.emplace());
    } else if (ParseFlag(a, "--p", &value)) {
      number_ok = ParseNumber(a, value, &args.p);
    } else if (ParseFlag(a, "--q", &value)) {
      number_ok = ParseNumber(a, value, &args.q);
    } else if (std::strcmp(a, "--weighted") == 0) {
      args.weighted = true;
    } else if (ParseFlag(a, "--stop", &value)) {
      number_ok = ParseNumber(a, value, &args.stop);
    } else if (ParseFlag(a, "--seed", &value)) {
      number_ok = ParseNumber(a, value, &args.seed);
    } else if (ParseFlag(a, "--out", &value)) {
      args.out_path = value;
    } else if (ParseFlag(a, "--pairs", &value)) {
      args.pairs_path = value;
    } else if (ParseFlag(a, "--metrics-json", &value)) {
      args.metrics_path = value;
    } else if (ParseFlag(a, "--trace-json", &value)) {
      args.trace_path = value;
    } else if (std::strcmp(a, "--progress") == 0) {
      args.progress = true;
    } else if (ParseFlag(a, "--progress", &value)) {
      args.progress = true;
      number_ok = ParseNumber(a, value, &args.progress_interval_s);
    } else if (std::strcmp(a, "--stats") == 0) {
      args.stats = true;
    } else if (std::strcmp(a, "--profile") == 0) {
      args.profile = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a);
      return Usage(argv[0]);
    }
    if (!number_ok) {
      return 2;
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
  // The engine reads num_walkers == 0 as one walker per vertex.
  if (args.walkers.has_value() && *args.walkers == 0) {
    std::fprintf(stderr, "error: --walkers must be at least 1\n");
    return 1;
  }
  if (!args.walkers.has_value() && args.rounds == 0) {
    std::fprintf(stderr, "error: --rounds must be at least 1\n");
    return 1;
  }

  try {
    // fmwalk's phases for --trace-json, in seconds since `clock` started.
    Timer clock;
    std::vector<TracePhase> phases;
    auto end_phase = [&](const char* name, double start_s) {
      phases.push_back({name, start_s, clock.Elapsed() - start_s});
      return phases.back().dur_s;
    };

    // ---- load -----------------------------------------------------------------
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
                 end_phase("load", 0));
    // Inputs the engine would reject with a fatal check: an empty graph, and
    // a spec that fails CheckWalkSpec (the degree sort keeps |V| and the
    // weights, so the raw graph answers for the sorted one).
    const std::string& graph_name =
        !args.graph_path.empty() ? args.graph_path : args.csr_path;
    if (raw.num_vertices() == 0) {
      std::fprintf(stderr, "error: %s holds no vertices\n", graph_name.c_str());
      return 1;
    }
    WalkSpec spec;
    spec.algorithm = args.algo == "node2vec"
                         ? WalkAlgorithm::kNode2Vec
                         : (args.algo == "mh" ? WalkAlgorithm::kMetropolisHastings
                                              : WalkAlgorithm::kDeepWalk);
    spec.steps = args.steps;
    spec.num_walkers = args.walkers.value_or(static_cast<Wid>(args.rounds) *
                                             raw.num_vertices());
    spec.node2vec = {args.p, args.q};
    spec.use_edge_weights = args.weighted;
    spec.stop_probability = args.stop;
    spec.seed = args.seed;
    spec.keep_paths = !args.out_path.empty() || !args.pairs_path.empty();
    const Status spec_status = CheckWalkSpec(spec, raw);
    if (!spec_status.ok()) {
      std::fprintf(stderr, "error: %s\n", spec_status.message().c_str());
      return 1;
    }

    // ---- pre-process (degree sort) ---------------------------------------------
    const double sort_start_s = clock.Elapsed();
    DegreeSortedGraph sorted = DegreeSort(raw);
    std::fprintf(stderr, "degree sort: %.2fs\n",
                 end_phase("degree_sort", sort_start_s));

    // ---- walk -------------------------------------------------------------------

    EngineOptions engine_options;
    // Only --stats reads the visit counts.
    engine_options.count_visits = args.stats;
    engine_options.record_step_stats = args.profile ||
                                       !args.metrics_path.empty() ||
                                       !args.trace_path.empty();
    engine_options.collect_counters = !args.metrics_path.empty();
    // The live view of the run's WalkStats, rendered at the engine's step
    // barriers.
    std::vector<WalkObserver*> observers;
    ProgressReporter progress(args.progress_interval_s);
    if (args.progress) {
      observers.push_back(&progress);
    }
    FlashMobEngine engine(sorted.graph, engine_options);
    const double run_start_s = clock.Elapsed();
    WalkResult result = engine.Run(spec, observers);
    end_phase("run", run_start_s);
    // Live share: walker-steps per W slot the scatters scanned.
    const double live_share =
        result.stats.slots_scanned == 0
            ? 1.0
            : static_cast<double>(result.stats.total_steps) /
                  static_cast<double>(result.stats.slots_scanned);
    std::fprintf(stderr,
                 "walked %llu steps in %.2fs: %.1f ns/step "
                 "(sample %.2fs, shuffle %.2fs, other %.2fs, "
                 "%u episodes, %.1f%% of %llu scanned slots live)\n",
                 static_cast<unsigned long long>(result.stats.total_steps),
                 result.stats.times.Total(), result.stats.PerStepNs(),
                 result.stats.times.sample_s, result.stats.times.shuffle_s,
                 result.stats.times.other_s, result.stats.episodes,
                 100.0 * live_share,
                 static_cast<unsigned long long>(result.stats.slots_scanned));
    if (spec.algorithm == WalkAlgorithm::kNode2Vec) {
      const Node2VecCounts& n2v = result.stats.node2vec;
      std::fprintf(stderr,
                   "node2vec accept tests: %llu proposals, %llu pre-decided, "
                   "%llu connectivity checks\n",
                   static_cast<unsigned long long>(n2v.proposals),
                   static_cast<unsigned long long>(n2v.pre_decided),
                   static_cast<unsigned long long>(n2v.checks));
    }
    // Per-step wall-time spread from the run's own histogram — the one
    // --metrics-json prints as run.step_ns, so the two can never disagree.
    {
      const Log2Histogram& step_ns = result.stats.step_ns;
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
    const double output_start_s = clock.Elapsed();
    if (!args.metrics_path.empty()) {
      MetricsMeta meta;
      meta.tool = "fmwalk";
      meta.graph = !args.graph_path.empty() ? args.graph_path : args.csr_path;
      meta.algorithm = args.algo;
      meta.seed = args.seed;
      meta.threads = ThreadPool::Global().thread_count();
      if (!WriteWalkMetricsJson(args.metrics_path, meta, result.stats,
                                &engine.plan())) {
        return CannotWrite(args.metrics_path);
      }
      std::fprintf(stderr, "wrote metrics (backend=%s) to %s\n",
                   result.stats.perf_backend.empty()
                       ? "off"
                       : result.stats.perf_backend.c_str(),
                   args.metrics_path.c_str());
    }
    if (!args.out_path.empty()) {
      std::ofstream out(args.out_path);
      if (!out) {
        return CannotWrite(args.out_path);
      }
      for (Wid w = 0; w < result.paths.num_walkers(); ++w) {
        auto path = result.paths.Path(w);
        for (size_t i = 0; i < path.size(); ++i) {
          out << (i == 0 ? "" : " ") << sorted.new_to_old[path[i]];
        }
        out << '\n';
      }
      out.close();
      if (!out) {
        return CannotWrite(args.out_path);
      }
      std::fprintf(stderr, "wrote %llu walks to %s\n",
                   static_cast<unsigned long long>(result.paths.num_walkers()),
                   args.out_path.c_str());
    }
    if (!args.pairs_path.empty()) {
      std::ofstream out(args.pairs_path);
      if (!out) {
        return CannotWrite(args.pairs_path);
      }
      uint64_t pairs = 0;
      result.paths.StreamEdges([&](Vid from, Vid to) {
        out << sorted.new_to_old[from] << ' ' << sorted.new_to_old[to] << '\n';
        ++pairs;
      });
      out.close();
      if (!out) {
        return CannotWrite(args.pairs_path);
      }
      std::fprintf(stderr, "wrote %llu sampled edges to %s\n",
                   static_cast<unsigned long long>(pairs),
                   args.pairs_path.c_str());
    }
    if (args.profile) {
      std::printf("%3s %4s %10s %10s %10s %12s %12s %12s %12s\n", "ep",
                  "step", "scatter_ms", "sample_ms", "gather_ms", "live",
                  "scanned", "min vp", "max vp");
      for (const StepStageRecord& rec : result.stats.step_records) {
        Wid min_vp = 0;
        Wid max_vp = 0;
        if (!rec.vp_walkers.empty()) {
          auto [lo, hi] =
              std::minmax_element(rec.vp_walkers.begin(), rec.vp_walkers.end());
          min_vp = *lo;
          max_vp = *hi;
        }
        std::printf(
            "%3llu %4u %10.3f %10.3f %10.3f %12llu %12llu %12llu %12llu\n",
            static_cast<unsigned long long>(rec.episode), rec.step,
            rec.scatter_s * 1e3, rec.sample_s * 1e3, rec.gather_s * 1e3,
            static_cast<unsigned long long>(rec.live_walkers),
            static_cast<unsigned long long>(rec.scanned),
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
    // The trace is written last so that it covers the output phase.
    if (!args.trace_path.empty()) {
      end_phase("output", output_start_s);
      std::ofstream trace(args.trace_path);
      trace << WalkTraceJson(phases, run_start_s, result.stats) << '\n';
      trace.close();
      if (!trace) {
        return CannotWrite(args.trace_path);
      }
      std::fprintf(stderr,
                   "wrote the trace of %zu steps to %s — open it in "
                   "ui.perfetto.dev\n",
                   result.stats.step_records.size(), args.trace_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
