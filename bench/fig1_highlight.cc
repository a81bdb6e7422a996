// Figure 1: performance highlight.
//
// (a) Per-step DeepWalk time: KnightKing on toy graphs sized into L1/L2/L3, then on
//     the YT and YH stand-ins; FlashMob on YT and YH. The paper's claim: FlashMob on
//     the biggest graph matches KnightKing's speed on an L2-resident toy graph.
// (b) Per-step cache-miss breakdown (software cache simulator standing in for perf;
//     see DESIGN.md §3) for both engines on YT and YH, plus the shuffle stage's
//     share (fig1b/flashmob/shuffle). FM_FIG1_SIM_WALKERS overrides the
//     instrumented walker count — above ~5.2M the walker array exceeds the
//     simulated 19.75MB LLC.
// (c) KnightKing's step-interleaving ring at depths {1,4,8,16} next to
//     FlashMob's sequential sample stage.
#include "bench/bench_util.h"

namespace fm {
namespace {

// Toy graphs have only hundreds of vertices; pad the walker count so every
// measurement covers enough walker-steps for a stable clock reading.
WalkSpec PaddedSpec(const CsrGraph& g) {
  WalkSpec spec = PerfSpec(g);
  uint64_t min_steps = static_cast<uint64_t>(EnvInt64("FM_FIG1_MIN_STEPS", 8 << 20));
  spec.num_walkers = std::max<Wid>(spec.num_walkers, min_steps / spec.steps);
  return spec;
}

double KnightKingPerStep(const CsrGraph& g, const char* point,
                         BenchTrajectory* traj) {
  BaselineOptions options;
  options.count_visits = false;
  KnightKingEngine engine(g, options);
  double ns = engine.Run(PaddedSpec(g)).stats.PerStepNs();
  if (traj != nullptr) {
    traj->Add("fig1a/knightking", point, ns, "ns/step");
  }
  return ns;
}

double FlashMobPerStep(const CsrGraph& g, const char* point,
                       BenchTrajectory* traj) {
  EngineOptions options = PerfEngineOptions();
  options.collect_counters = traj != nullptr;
  FlashMobEngine engine(g, options);
  WalkResult result = engine.Run(PaddedSpec(g));
  const WalkStats& stats = result.stats;
  if (traj != nullptr) {
    const double shuffle_ns = stats.total_steps == 0
                                  ? 0
                                  : stats.times.shuffle_s * 1e9 /
                                        static_cast<double>(stats.total_steps);
    traj->set_backend(stats.perf_backend);
    traj->Add("fig1a/flashmob", point, stats.PerStepNs(), "ns/step");
    const std::string shuffle_series = "fig1a/flashmob/shuffle";
    traj->Add(shuffle_series, point, shuffle_ns, "ns/step");
    traj->AddCounters(std::string("fig1a/flashmob/") + point,
                      stats.counters.Total());
    CounterSample shuffle_counters = stats.counters.scatter;
    shuffle_counters += stats.counters.gather;
    traj->AddCounters(shuffle_series + "/" + point, shuffle_counters);
  }
  return stats.PerStepNs();
}

// Interleave depth sweep (fig1c series): KnightKing's ring at depths
// {1,4,8,16} on one dataset, next to FlashMob's sequential sample stage (its
// only path, recorded as d1 with hardware counter samples).
void InterleaveSweep(const CsrGraph& g, const char* point,
                     BenchTrajectory* traj) {
  std::printf("\n  interleave depth sweep on %s:\n", point);
  EngineOptions options = PerfEngineOptions();
  options.collect_counters = traj != nullptr;
  FlashMobEngine engine(g, options);
  WalkResult result = engine.Run(PaddedSpec(g));
  const double fm_ns = result.stats.PerStepNs();
  std::printf("    flashmob (sequential)  %8.1f ns/step\n", fm_ns);
  if (traj != nullptr) {
    const std::string pt = std::string(point) + "/d1";
    traj->Add("fig1c/flashmob-interleave", pt, fm_ns, "ns/step");
    traj->AddCounters("fig1c/flashmob-interleave/" + pt,
                      result.stats.counters.Total());
  }
  for (uint32_t depth : {1u, 4u, 8u, 16u}) {
    BaselineOptions base;
    base.count_visits = false;
    base.use_mersenne = false;  // the per-walker-stream path the ring needs
    base.interleave_depth = depth;
    KnightKingEngine knk(g, base);
    const double knk_ns = knk.Run(PaddedSpec(g)).stats.PerStepNs();
    std::printf("    knightking depth %2u   %8.1f ns/step\n", depth, knk_ns);
    if (traj != nullptr) {
      traj->Add("fig1c/knightking-interleave",
                std::string(point) + "/d" + std::to_string(depth), knk_ns,
                "ns/step");
    }
  }
}

void MissBreakdown(const char* name, const CsrGraph& g, BenchTrajectory* traj) {
  WalkSpec spec;
  spec.steps = static_cast<uint32_t>(EnvInt64("FM_FIG1_SIM_STEPS", 6));
  // Paper density: |V| walkers per episode. FM_FIG1_SIM_WALKERS overrides so
  // the walker array can be pushed past the simulated LLC.
  const uint64_t sim_walkers =
      static_cast<uint64_t>(EnvInt64("FM_FIG1_SIM_WALKERS", 0));
  spec.num_walkers =
      sim_walkers != 0 ? static_cast<Wid>(sim_walkers) : g.num_vertices();
  spec.keep_paths = false;

  CacheHierarchy knk_sim;  // paper cache geometry
  BaselineOptions base_options;
  base_options.count_visits = false;
  KnightKingEngine knk(g, base_options);
  WalkResult knk_run = knk.RunInstrumented(spec, &knk_sim);

  CacheHierarchy fm_sim;
  EngineOptions options = PerfEngineOptions();
  FlashMobEngine fmob(g, options);
  WalkResult fm_run = fmob.RunInstrumented(spec, &fm_sim);

  auto print = [&](const char* engine, const char* series,
                   const CacheCounters& c, uint64_t steps) {
    std::printf("  %-10s %-4s  L1=%7.2f  L2=%6.3f  L3=%6.3f  (misses/step)\n",
                engine, name, static_cast<double>(c.misses[0]) / steps,
                static_cast<double>(c.misses[1]) / steps,
                static_cast<double>(c.misses[2]) / steps);
    if (traj != nullptr) {
      const char* levels[3] = {"L1", "L2", "L3"};
      for (int l = 0; l < 3; ++l) {
        traj->Add(series, std::string(name) + "/" + levels[l],
                  static_cast<double>(c.misses[l]) / steps,
                  "sim-misses/step");
      }
    }
  };
  print("KnightKing", "fig1b/knightking", knk_sim.counters(),
        knk_run.stats.total_steps);
  print("FlashMob", "fig1b/flashmob", fm_sim.counters(),
        fm_run.stats.total_steps);

  // Shuffle-stage share: the shuffle replays its real access pattern
  // through the simulator (WalkStats::sim_shuffle).
  const CacheCounters& c = fm_run.stats.sim_shuffle;
  const uint64_t steps =
      fm_run.stats.total_steps == 0 ? 1 : fm_run.stats.total_steps;
  std::printf("  FlashMob shuffle %-4s  L1=%7.2f  L2=%6.3f  L3=%6.3f  "
              "(misses/step)\n",
              name, static_cast<double>(c.misses[0]) / steps,
              static_cast<double>(c.misses[1]) / steps,
              static_cast<double>(c.misses[2]) / steps);
  if (traj != nullptr) {
    const char* levels[3] = {"L1", "L2", "L3"};
    for (int l = 0; l < 3; ++l) {
      traj->Add("fig1b/flashmob/shuffle", std::string(name) + "/" + levels[l],
                static_cast<double>(c.misses[l]) / steps, "sim-misses/step");
    }
  }
}

}  // namespace
}  // namespace fm

int main(int argc, char** argv) {
  using namespace fm;
  BenchArgs args = ParseBenchArgs(argc, argv);
  MaybeStartTrace(args);
  auto telemetry_writer = MakeBenchTelemetryWriter(args);
  BenchTrajectory traj("fig1_highlight");
  BenchTrajectory* tp = args.metrics_path.empty() ? nullptr : &traj;
  PrintHeader("Figure 1a: per-step time highlight (DeepWalk)");

  const CacheInfo& info = DetectCacheInfo();
  struct Toy {
    const char* name;
    uint64_t budget;
  } toys[] = {{"toy-L1", info.l1_bytes}, {"toy-L2", info.l2_bytes},
              {"toy-L3", info.l3_bytes}};
  for (const Toy& toy : toys) {
    CsrGraph g = GenerateCacheSizedGraph(toy.budget * 9 / 10, 16, 42);
    std::printf("  KnightKing  %-7s (%7s CSR): %8.1f ns/step\n", toy.name,
                HumanBytes(g.CsrBytes()).c_str(),
                KnightKingPerStep(g, toy.name, tp));
  }
  CsrGraph yt = LoadDataset(DatasetByName("YT"));
  CsrGraph yh = LoadDataset(DatasetByName("YH"));
  std::printf("  KnightKing  %-7s (%7s CSR): %8.1f ns/step\n", "YT",
              HumanBytes(yt.CsrBytes()).c_str(), KnightKingPerStep(yt, "YT", tp));
  std::printf("  KnightKing  %-7s (%7s CSR): %8.1f ns/step\n", "YH",
              HumanBytes(yh.CsrBytes()).c_str(), KnightKingPerStep(yh, "YH", tp));
  std::printf("  FlashMob    %-7s (%7s CSR): %8.1f ns/step\n", "YT",
              HumanBytes(yt.CsrBytes()).c_str(),
              FlashMobPerStep(yt, "YT", tp));
  std::printf("  FlashMob    %-7s (%7s CSR): %8.1f ns/step\n", "YH",
              HumanBytes(yh.CsrBytes()).c_str(),
              FlashMobPerStep(yh, "YH", tp));
  std::printf(
      "\npaper: FlashMob on the 58GB YH graph ~= KnightKing on a 600KB (L2) toy\n");

  PrintHeader("Figure 1c: step-interleaving depth sweep (DeepWalk)");
  InterleaveSweep(yt, "YT", tp);

  PrintHeader("Figure 1b: per-step cache misses (simulated, paper geometry)");
  MissBreakdown("YT", yt, tp);
  MissBreakdown("YH", yh, tp);
  std::printf(
      "\npaper shape: FlashMob cuts L2/L3 misses sharply; KnightKing's L1 misses "
      "fall straight through to DRAM\n");
  MaybeWriteTrajectory(traj, args.metrics_path);
  MaybeWriteTrace(args);
  return 0;
}
