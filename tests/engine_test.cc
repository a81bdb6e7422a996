#include "src/core/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "src/core/algorithms/deepwalk.h"
#include "src/core/algorithms/node2vec.h"
#include "src/core/walk_observer.h"
#include "src/gen/powerlaw_graph.h"
#include "src/gen/uniform_degree.h"
#include "src/graph/degree_sort.h"
#include "src/graph/edge_io.h"
#include "src/util/thread_pool.h"
#include "tests/test_util.h"

namespace fm {
namespace {

CsrGraph SkewedGraph(Vid n, uint64_t seed = 1) {
  PowerLawConfig config;
  config.degrees.num_vertices = n;
  config.degrees.avg_degree = 8;
  config.degrees.alpha = 0.8;
  config.degrees.max_degree = n / 8;
  config.seed = seed;
  return GeneratePowerLawGraph(config);
}

WalkSpec SmallSpec(Wid walkers, uint32_t steps, uint64_t seed = 1) {
  WalkSpec spec;
  spec.num_walkers = walkers;
  spec.steps = steps;
  spec.seed = seed;
  return spec;
}

TEST(EngineTest, RequiresDegreeSortedGraph) {
  GraphBuilder b(3);
  b.AddEdge(2, 0);
  b.AddEdge(2, 1);
  b.AddEdge(0, 2);
  CsrGraph g = b.Build();
  EXPECT_DEATH(FlashMobEngine engine(g), "degree-sorted");
}

TEST(EngineTest, PathsAreValidWalks) {
  CsrGraph g = SkewedGraph(5000);
  FlashMobEngine engine(g);
  WalkResult result = engine.Run(SmallSpec(10000, 12));
  EXPECT_EQ(result.paths.num_walkers(), 10000u);
  EXPECT_EQ(result.stats.total_steps, 10000u * 12);
  EXPECT_TRUE(result.paths.ValidAgainst(g));
}

TEST(EngineTest, DeterministicForSameSeed) {
  CsrGraph g = SkewedGraph(2000);
  FlashMobEngine a(g), b(g);
  WalkResult ra = a.Run(SmallSpec(5000, 8, 42));
  WalkResult rb = b.Run(SmallSpec(5000, 8, 42));
  for (uint32_t s = 0; s <= 8; ++s) {
    ASSERT_EQ(ra.paths.Row(s), rb.paths.Row(s)) << "step " << s;
  }
  WalkResult rc = a.Run(SmallSpec(5000, 8, 43));
  EXPECT_NE(ra.paths.Row(8), rc.paths.Row(8));
}

TEST(EngineTest, VisitCountsMatchPaths) {
  CsrGraph g = SkewedGraph(3000);
  FlashMobEngine engine(g);
  WalkResult result = engine.Run(SmallSpec(6000, 10));
  EXPECT_EQ(result.visit_counts, result.paths.VisitCounts(g.num_vertices()));
}

TEST(EngineTest, EpisodesSplitUnderDramBudget) {
  CsrGraph g = SkewedGraph(2000);
  EngineOptions options;
  options.dram_budget_bytes = 1 << 20;  // 1 MB: forces multiple episodes
  FlashMobEngine engine(g, options);
  WalkSpec spec = SmallSpec(100000, 5);
  Wid per_episode = engine.EpisodeWalkers(spec);
  EXPECT_LT(per_episode, 100000u);
  WalkResult result = engine.Run(spec);
  EXPECT_GT(result.stats.episodes, 1u);
  EXPECT_EQ(result.paths.num_walkers(), 100000u);
  EXPECT_EQ(result.stats.total_steps, 100000u * 5);
  EXPECT_TRUE(result.paths.ValidAgainst(g));
}

TEST(EngineTest, NoPathsModeStillCountsVisits) {
  CsrGraph g = SkewedGraph(3000);
  FlashMobEngine engine(g);
  WalkSpec spec = SmallSpec(5000, 10);
  spec.keep_paths = false;
  WalkResult result = engine.Run(spec);
  EXPECT_EQ(result.paths.num_walkers(), 0u);
  uint64_t total = 0;
  for (uint64_t c : result.visit_counts) {
    total += c;
  }
  EXPECT_EQ(total, 5000u * 11);  // start + 10 steps per walker
}

TEST(EngineTest, StationaryDistributionOnCompleteGraph) {
  // On a complete graph the walk's stationary distribution is uniform; visit
  // shares must converge there regardless of partitioning machinery.
  CsrGraph g = CompleteGraph(32);
  FlashMobEngine engine(g);
  WalkSpec spec = SmallSpec(20000, 20);
  spec.keep_paths = false;
  WalkResult result = engine.Run(spec);
  uint64_t total = 0;
  for (uint64_t c : result.visit_counts) {
    total += c;
  }
  for (uint64_t c : result.visit_counts) {
    EXPECT_NEAR(static_cast<double>(c) / total, 1.0 / 32, 0.005);
  }
}

TEST(EngineTest, DegreeProportionalInitialPlacement) {
  // Walkers seed "uniformly among all edges": start counts ~ degree.
  CsrGraph g = DegreeSort(StarGraph(64)).graph;  // hub degree 63, leaves 1
  FlashMobEngine engine(g);
  WalkSpec spec = SmallSpec(126000, 1);
  WalkResult result = engine.Run(spec);
  uint64_t hub_starts = 0;
  for (Wid w = 0; w < result.paths.num_walkers(); ++w) {
    hub_starts += result.paths.At(w, 0) == 0;
  }
  EXPECT_NEAR(static_cast<double>(hub_starts) / 126000, 0.5, 0.02);
}

TEST(EngineTest, InjectedUniformPlansWork) {
  CsrGraph g = SkewedGraph(4000);
  for (SamplePolicy policy : {SamplePolicy::kPS, SamplePolicy::kDS}) {
    FlashMobEngine engine(g);
    engine.SetPlan(PartitionPlan::BuildUniform(g, 32, policy));
    WalkResult result = engine.Run(SmallSpec(8000, 8));
    EXPECT_TRUE(result.paths.ValidAgainst(g));
  }
}

TEST(EngineTest, PsAndDsPlansGiveSameDistribution) {
  // Same graph, same workload, different sampling policies: visit distributions
  // must agree statistically (correlate far better than chance).
  CsrGraph g = SkewedGraph(2000);
  WalkSpec spec = SmallSpec(40000, 10, 7);
  spec.keep_paths = false;

  FlashMobEngine ps_engine(g);
  ps_engine.SetPlan(PartitionPlan::BuildUniform(g, 16, SamplePolicy::kPS));
  auto ps = ps_engine.Run(spec).visit_counts;

  FlashMobEngine ds_engine(g);
  ds_engine.SetPlan(PartitionPlan::BuildUniform(g, 16, SamplePolicy::kDS));
  auto ds = ds_engine.Run(spec).visit_counts;

  double max_rel_diff = 0;
  for (Vid v = 0; v < 100; ++v) {  // top vertices have high counts: tight stats
    double a = static_cast<double>(ps[v]);
    double b = static_cast<double>(ds[v]);
    max_rel_diff = std::max(max_rel_diff, std::abs(a - b) / std::max(a, b));
  }
  EXPECT_LT(max_rel_diff, 0.15);
}

TEST(EngineTest, Node2VecPathsValid) {
  CsrGraph g = SkewedGraph(2000);
  FlashMobEngine engine(g);
  WalkSpec spec = SmallSpec(4000, 8);
  spec.algorithm = WalkAlgorithm::kNode2Vec;
  spec.node2vec = {0.5, 2.0};
  WalkResult result = engine.Run(spec);
  EXPECT_TRUE(result.paths.ValidAgainst(g));
}

TEST(EngineTest, Node2VecAvoidsBacktrackingWithHighP) {
  // With p >> 1 returning to the predecessor is heavily penalized.
  CsrGraph g = CompleteGraph(8);
  FlashMobEngine engine(g);
  WalkSpec spec = SmallSpec(20000, 6);
  spec.algorithm = WalkAlgorithm::kNode2Vec;
  spec.node2vec = {100.0, 1.0};
  WalkResult result = engine.Run(spec);
  uint64_t backtracks = 0;
  uint64_t transitions = 0;
  for (Wid w = 0; w < result.paths.num_walkers(); ++w) {
    for (uint32_t s = 2; s <= 6; ++s) {
      ++transitions;
      backtracks += result.paths.At(w, s) == result.paths.At(w, s - 2);
    }
  }
  // Uniform would backtrack 1/7 (~14%) of the time; p=100 pushes it near zero.
  EXPECT_LT(static_cast<double>(backtracks) / transitions, 0.02);
}

TEST(EngineTest, StopProbabilityKillsWalkers) {
  CsrGraph g = SkewedGraph(1000);
  FlashMobEngine engine(g);
  WalkSpec spec = SmallSpec(20000, 10);
  spec.stop_probability = 0.2;
  WalkResult result = engine.Run(spec);
  EXPECT_TRUE(result.paths.ValidAgainst(g));
  uint64_t alive = 0;
  for (Wid w = 0; w < result.paths.num_walkers(); ++w) {
    alive += result.paths.At(w, 10) != kInvalidVid;
  }
  // Survival through 10 steps ~ 0.8^10 ~ 10.7%.
  EXPECT_NEAR(static_cast<double>(alive) / 20000, std::pow(0.8, 10), 0.02);
  // Dead walkers are excluded from the step count.
  EXPECT_LT(result.stats.total_steps, 20000u * 10);
}

TEST(EngineTest, IdentityFreeModeMatchesVisitDistribution) {
  // The identity-free extension (no reverse shuffle) must leave all aggregate
  // statistics unchanged.
  CsrGraph g = SkewedGraph(3000);
  WalkSpec spec = SmallSpec(60000, 10, 11);
  spec.keep_paths = false;

  FlashMobEngine tracked_engine(g);
  auto tracked = tracked_engine.Run(spec).visit_counts;

  spec.track_identity = false;
  FlashMobEngine free_engine(g);
  auto anonymous = free_engine.Run(spec).visit_counts;

  uint64_t total_a = 0, total_b = 0;
  for (Vid v = 0; v < g.num_vertices(); ++v) {
    total_a += tracked[v];
    total_b += anonymous[v];
  }
  EXPECT_EQ(total_a, total_b);
  for (Vid v = 0; v < 50; ++v) {
    double a = static_cast<double>(tracked[v]) / total_a;
    double b = static_cast<double>(anonymous[v]) / total_b;
    ASSERT_NEAR(a, b, 0.1 * std::max(a, b) + 1e-5) << v;
  }
}

TEST(EngineTest, IdentityFreeNode2VecValidAndBacktrackAverse) {
  CsrGraph g = CompleteGraph(8);
  WalkSpec spec = SmallSpec(50000, 6, 13);
  spec.algorithm = WalkAlgorithm::kNode2Vec;
  spec.node2vec = {100.0, 1.0};
  spec.keep_paths = false;
  spec.track_identity = false;
  FlashMobEngine engine(g);
  WalkResult result = engine.Run(spec);
  // With p=100 the stationary distribution on a complete graph stays uniform; the
  // run must complete and count all steps.
  EXPECT_EQ(result.stats.total_steps, 50000u * 6);
  uint64_t total = 0;
  for (uint64_t c : result.visit_counts) {
    total += c;
  }
  EXPECT_EQ(total, 50000u * 7);
}

TEST(EngineTest, IdentityFreeRejectsKeepPaths) {
  CsrGraph g = SkewedGraph(500);
  FlashMobEngine engine(g);
  WalkSpec spec = SmallSpec(100, 2);
  spec.track_identity = false;
  spec.keep_paths = true;
  EXPECT_DEATH(engine.Run(spec), "track_identity");
}

TEST(EngineTest, RejectsStopProbabilityOutsideTheUnitInterval) {
  // 1.5 would kill every walker at its first step and NaN would never stop
  // one. A one-thread pool: a forked death-test child has no pool workers.
  CsrGraph g = SkewedGraph(500);
  ThreadPool pool(1);
  EngineOptions options;
  options.pool = &pool;
  FlashMobEngine engine(g, options);
  for (double stop : {1.5, std::numeric_limits<double>::quiet_NaN()}) {
    WalkSpec spec = SmallSpec(100, 2);
    spec.stop_probability = stop;
    EXPECT_DEATH(engine.Run(spec), "stop_probability must lie in")
        << stop;
  }
}

TEST(EngineTest, Node2VecFirstStepIsUniformNotPrevBiased) {
  // Regression: the first step must be a uniform first-order step (prev ==
  // kInvalidVid), not biased as if every walker's predecessor were vertex 0.
  CsrGraph g = CompleteGraph(5);
  FlashMobEngine engine(g);
  WalkSpec spec = SmallSpec(100000, 1, 17);
  spec.algorithm = WalkAlgorithm::kNode2Vec;
  spec.node2vec = {1000.0, 1.0};  // returning to prev ~forbidden
  WalkResult result = engine.Run(spec);
  // If prev were wrongly 0, walkers at vertices 1..4 would almost never move to 0;
  // under a correct uniform first step, transitions into 0 happen ~1/4 of the time.
  uint64_t into_zero = 0, from_nonzero = 0;
  for (Wid w = 0; w < result.paths.num_walkers(); ++w) {
    if (result.paths.At(w, 0) != 0) {
      ++from_nonzero;
      into_zero += result.paths.At(w, 1) == 0;
    }
  }
  ASSERT_GT(from_nonzero, 1000u);
  EXPECT_NEAR(static_cast<double>(into_zero) / from_nonzero, 0.25, 0.02);
}

TEST(EngineTest, VpWalkerStepsSumToTotal) {
  CsrGraph g = SkewedGraph(5000);
  FlashMobEngine engine(g);
  WalkResult result = engine.Run(SmallSpec(10000, 10));
  uint64_t sum = 0;
  for (uint64_t c : result.stats.vp_walker_steps) {
    sum += c;
  }
  EXPECT_EQ(sum, result.stats.total_steps);
}

TEST(EngineTest, InstrumentedRunCountsAccesses) {
  CsrGraph g = SkewedGraph(2000);
  FlashMobEngine engine(g);
  CacheHierarchy sim;
  WalkSpec spec = SmallSpec(2000, 4);
  WalkResult result = engine.RunInstrumented(spec, &sim);
  EXPECT_TRUE(result.paths.ValidAgainst(g));
  // At least a few accesses per walker-step were simulated.
  EXPECT_GT(sim.counters().accesses, result.stats.total_steps * 2);
}

TEST(EngineTest, InstrumentedRunWalksTheSameWalk) {
  // RunInstrumented executes the production sample and shuffle kernels under
  // CacheSimHook on one thread; hooking them must change no walk. A two-level
  // plan and a stop probability put every shuffle kernel, both copy-throughs
  // and the dead bin on the path, and runs without paths the squeeze.
  PowerLawConfig config;
  config.degrees.num_vertices = 60000;
  config.degrees.avg_degree = 8;
  config.degrees.alpha = 0.8;
  config.degrees.max_degree = 60000 / 8;
  config.random_weights = true;
  CsrGraph g = GeneratePowerLawGraph(config);
  EngineOptions options;
  options.plan.num_groups = 32;
  options.plan.max_partitions = 36;
  struct Case {
    const char* name;
    WalkAlgorithm algorithm;
    bool weighted;
  };
  for (const Case& c : {Case{"deepwalk", WalkAlgorithm::kDeepWalk, false},
                        Case{"node2vec", WalkAlgorithm::kNode2Vec, false},
                        Case{"weighted", WalkAlgorithm::kDeepWalk, true}}) {
    WalkSpec spec = SmallSpec(15000, 10, 7);
    spec.algorithm = c.algorithm;
    spec.node2vec = {0.5, 2.0};
    spec.use_edge_weights = c.weighted;
    spec.stop_probability = 0.15;
    FlashMobEngine engine(g, options);
    WalkResult plain = engine.Run(spec);
    ASSERT_TRUE(engine.plan().has_internal_shuffle()) << c.name;
    CacheHierarchy sim;
    WalkResult hooked = engine.RunInstrumented(spec, &sim);
    EXPECT_TRUE(hooked.paths.SameAs(plain.paths)) << c.name;
    EXPECT_EQ(hooked.visit_counts, plain.visit_counts) << c.name;
    EXPECT_GT(hooked.stats.sim_shuffle.accesses, 0u) << c.name;

    // Without paths the survivors are squeezed, through the hook too.
    spec.keep_paths = false;
    spec.stop_probability = 0.5;
    WalkResult plain_squeezed = engine.Run(spec);
    CacheHierarchy squeeze_sim;
    WalkResult hooked_squeezed = engine.RunInstrumented(spec, &squeeze_sim);
    EXPECT_LT(hooked_squeezed.stats.slots_scanned,
              uint64_t{spec.num_walkers} * spec.steps / 2)
        << c.name;
    EXPECT_EQ(hooked_squeezed.visit_counts, plain_squeezed.visit_counts)
        << c.name;
    EXPECT_EQ(hooked_squeezed.stats.total_steps,
              plain_squeezed.stats.total_steps)
        << c.name;
  }
}

TEST(EngineTest, DefaultWalkerCountIsNumVertices) {
  CsrGraph g = SkewedGraph(1500);
  FlashMobEngine engine(g);
  WalkSpec spec;
  spec.steps = 3;
  WalkResult result = engine.Run(spec);
  EXPECT_EQ(result.paths.num_walkers(), 1500u);
}

TEST(EngineTest, WalksMemoryMappedGraph) {
  // Out-of-core mode: the engine walks a graph whose CSR lives in a file mapping.
  namespace fs = std::filesystem;
  auto path = fs::temp_directory_path() / "fm_engine_mmap.csr";
  CsrGraph in_memory = SkewedGraph(4000);
  SaveCsrBinary(in_memory, path.string());
  CsrGraph mapped = LoadCsrBinaryMapped(path.string());
  ASSERT_TRUE(mapped.memory_mapped());

  FlashMobEngine engine(mapped);
  WalkResult result = engine.Run(SmallSpec(8000, 8, 21));
  EXPECT_TRUE(result.paths.ValidAgainst(in_memory));

  // Identical seeds on the in-memory twin give identical paths.
  FlashMobEngine twin(in_memory);
  WalkResult twin_result = twin.Run(SmallSpec(8000, 8, 21));
  EXPECT_EQ(result.paths.Row(8), twin_result.paths.Row(8));
  fs::remove(path);
}

TEST(EngineTest, WalkerDensityReportsMeanEpisodeSize) {
  // walker_density is the mean episode size in walkers per edge — not the
  // whole-run walker total, which a multi-episode run never holds at once.
  CsrGraph g = SkewedGraph(2000);
  EngineOptions options;
  options.dram_budget_bytes = 1 << 20;
  FlashMobEngine engine(g, options);
  WalkSpec spec = SmallSpec(100000, 5);
  spec.keep_paths = false;
  Wid cap = engine.EpisodeWalkers(spec);
  ASSERT_LT(cap, 100000u);
  WalkResult result = engine.Run(spec);
  uint64_t episodes = (100000 + cap - 1) / cap;
  EXPECT_EQ(result.stats.episodes, episodes);
  double mean_episode = 100000.0 / static_cast<double>(episodes);
  EXPECT_DOUBLE_EQ(result.stats.walker_density,
                   mean_episode / static_cast<double>(g.num_edges()));

  // A single-episode run reports the plain walkers-per-edge ratio.
  FlashMobEngine roomy(g);
  WalkResult single = roomy.Run(spec);
  EXPECT_EQ(single.stats.episodes, 1u);
  EXPECT_DOUBLE_EQ(single.stats.walker_density,
                   100000.0 / static_cast<double>(g.num_edges()));
}

TEST(EngineTest, StepRecordsCoverEveryEpisodeStep) {
  CsrGraph g = SkewedGraph(2000);
  EngineOptions options;
  options.dram_budget_bytes = 1 << 20;  // several episodes
  options.record_step_stats = true;
  FlashMobEngine engine(g, options);
  WalkSpec spec = SmallSpec(50000, 6);
  spec.keep_paths = false;
  WalkResult result = engine.Run(spec);
  ASSERT_GT(result.stats.episodes, 1u);
  ASSERT_EQ(result.stats.step_records.size(), result.stats.episodes * 6);
  uint64_t live_sum = 0;
  uint64_t index = 0;
  for (const StepStageRecord& rec : result.stats.step_records) {
    EXPECT_EQ(rec.episode, index / 6);
    EXPECT_EQ(rec.step, index % 6);
    ++index;
    Wid vp_sum = 0;
    for (Wid c : rec.vp_walkers) {
      vp_sum += c;
    }
    EXPECT_EQ(vp_sum, rec.live_walkers);
    live_sum += rec.live_walkers;
  }
  // stop_probability == 0: every live walker steps every step.
  EXPECT_EQ(live_sum, result.stats.total_steps);
}

TEST(EngineTest, SlotsScannedFollowLiveWalkers) {
  // Without deaths every scanned slot is live. At stop 0.5 a full-width scan
  // would read six slots per walker-step over 12 steps; squeezing the
  // survivors once half the slots are dead keeps it under two.
  CsrGraph g = SkewedGraph(4000);
  ThreadPool pool(3);
  EngineOptions options;
  options.pool = &pool;
  options.record_step_stats = true;
  FlashMobEngine engine(g, options);
  for (bool identity : {true, false}) {
    WalkSpec spec = SmallSpec(40000, 12, 3);
    spec.keep_paths = false;
    spec.track_identity = identity;
    WalkResult full = engine.Run(spec);
    EXPECT_EQ(full.stats.slots_scanned, full.stats.total_steps);

    spec.stop_probability = 0.5;
    WalkResult dying = engine.Run(spec);
    EXPECT_LE(dying.stats.slots_scanned, 2 * dying.stats.total_steps)
        << "identity " << identity;
    uint64_t scanned = 0;
    for (const StepStageRecord& rec : dying.stats.step_records) {
      EXPECT_LE(rec.live_walkers, rec.scanned);
      scanned += rec.scanned;
    }
    EXPECT_EQ(scanned, dying.stats.slots_scanned);
  }
}

TEST(EngineTest, StepRecordsEmptyUnlessRequested) {
  CsrGraph g = SkewedGraph(1000);
  FlashMobEngine engine(g);
  WalkResult result = engine.Run(SmallSpec(2000, 3));
  EXPECT_TRUE(result.stats.step_records.empty());
}

TEST(EngineTest, StepHistogramHoldsOneSamplePerEpisodeStep) {
  CsrGraph g = SkewedGraph(2000);
  EngineOptions options;
  options.dram_budget_bytes = 3000 * 6 * sizeof(Vid);  // 3000 walkers/episode
  FlashMobEngine engine(g, options);
  WalkSpec spec = SmallSpec(8192, 5);
  spec.keep_paths = false;
  WalkResult result = engine.Run(spec);
  ASSERT_EQ(result.stats.episodes, 3u);
  // Kept without step records: one sample per (episode, step).
  EXPECT_TRUE(result.stats.step_records.empty());
  EXPECT_EQ(result.stats.step_ns.count, 3u * 5);
  EXPECT_GT(result.stats.step_ns.sum, 0u);
}

TEST(EngineTest, LiveViewsReportOnlyTheirOwnRun) {
  CsrGraph g = SkewedGraph(1500);
  FlashMobEngine engine(g);
  std::FILE* progress_out = std::tmpfile();
  ASSERT_NE(progress_out, nullptr);
  ProgressReporter progress(/*interval_s=*/1e9, progress_out);
  WalkResult first = engine.Run(SmallSpec(6000, 7), {&progress});
  WalkResult second =
      engine.Run(SmallSpec(2000, 3, /*seed=*/2), {&progress});
  ASSERT_NE(first.stats.total_steps, second.stats.total_steps);
  // Each run's tally starts from zero, not from a process total.
  EXPECT_EQ(second.stats.step_ns.count, 3u);

  // The progress heartbeat printed one "done" line per run.
  std::rewind(progress_out);
  std::vector<std::string> done_lines;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), progress_out) != nullptr) {
    done_lines.emplace_back(buf);
  }
  std::fclose(progress_out);
  ASSERT_EQ(done_lines.size(), 2u);
  EXPECT_EQ(done_lines[0].rfind(
                "[fm] done: " + std::to_string(first.stats.total_steps) +
                    " walker-steps",
                0),
            0u)
      << done_lines[0];
  EXPECT_EQ(done_lines[1].rfind(
                "[fm] done: " + std::to_string(second.stats.total_steps) +
                    " walker-steps",
                0),
            0u)
      << done_lines[1];
}

TEST(EngineTest, Node2VecRejectsUnusableReturnAndInOutParameters) {
  CsrGraph g = SkewedGraph(500);
  FlashMobEngine engine(g);
  for (auto [p, q] : {std::pair{0.0, 1.0}, std::pair{1.0, -1.0},
                      std::pair{std::numeric_limits<double>::quiet_NaN(), 1.0},
                      std::pair{1.0, std::numeric_limits<double>::infinity()},
                      // 1/p or 1/q overflows, or a weight lies below the
                      // accept test's 2^-53 resolution of the bound.
                      std::pair{1e-310, 1.0}, std::pair{1.0, 1e-310},
                      std::pair{1e300, 1.0}}) {
    WalkSpec spec = Node2VecSpec(g.num_vertices(), p, q);
    EXPECT_DEATH(engine.Run(spec), "node2vec requires finite p > 0 and q > 0")
        << p << " " << q;
  }
}

TEST(EngineTest, Node2VecCountsItsAcceptTests) {
  // WalkStats::node2vec: every tested proposal is either decided by its
  // draw or checked, the tally does not depend on the pool size, and at
  // p = q = 1 nothing is checked.
  CsrGraph g = SkewedGraph(2000);
  auto run = [&](uint32_t threads, double p, double q) {
    ThreadPool pool(threads);
    EngineOptions options;
    options.pool = &pool;
    options.plan.threads_sharing_l3 = 4;  // same plan on every pool
    FlashMobEngine engine(g, options);
    return engine.Run(Node2VecSpec(g.num_vertices(), p, q, /*steps=*/8,
                                   /*rounds=*/2))
        .stats.node2vec;
  };
  const Node2VecCounts one = run(1, 2.0, 0.5);
  const Node2VecCounts three = run(3, 2.0, 0.5);
  EXPECT_GT(one.pre_decided, 0u);
  EXPECT_GT(one.checks, 0u);
  EXPECT_EQ(one.proposals, one.pre_decided + one.checks);
  EXPECT_EQ(three.proposals, one.proposals);
  EXPECT_EQ(three.pre_decided, one.pre_decided);
  EXPECT_EQ(three.checks, one.checks);

  const Node2VecCounts uniform = run(3, 1.0, 1.0);
  EXPECT_GT(uniform.proposals, 0u);
  EXPECT_EQ(uniform.checks, 0u);
  EXPECT_EQ(uniform.pre_decided, uniform.proposals);

  // DeepWalk runs no accept test.
  FlashMobEngine engine(g);
  const Node2VecCounts deepwalk =
      engine.Run(DeepWalkSpec(g.num_vertices(), 4)).stats.node2vec;
  EXPECT_EQ(deepwalk.proposals, 0u);
}

TEST(EngineTest, DeepWalkSpecHelper) {
  WalkSpec spec = DeepWalkSpec(1000);
  EXPECT_EQ(spec.num_walkers, 10000u);
  EXPECT_EQ(spec.steps, 80u);
  WalkSpec n2v = Node2VecSpec(1000, 0.25, 4.0);
  EXPECT_EQ(n2v.steps, 40u);
  EXPECT_DOUBLE_EQ(n2v.node2vec.p, 0.25);
}

}  // namespace
}  // namespace fm
