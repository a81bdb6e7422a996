#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/baseline/graphvite_engine.h"
#include "src/baseline/knightking_engine.h"
#include "src/core/engine.h"
#include "src/gen/powerlaw_graph.h"
#include "tests/test_util.h"

namespace fm {
namespace {

CsrGraph SkewedGraph(Vid n) {
  PowerLawConfig config;
  config.degrees.num_vertices = n;
  config.degrees.avg_degree = 8;
  config.degrees.alpha = 0.8;
  return GeneratePowerLawGraph(config);
}

WalkSpec SmallSpec(Wid walkers, uint32_t steps, uint64_t seed = 1) {
  WalkSpec spec;
  spec.num_walkers = walkers;
  spec.steps = steps;
  spec.seed = seed;
  return spec;
}

// Runs `spec` on a one-thread pool. A forked death-test child has no pool
// workers, so an engine that failed to refuse the spec would hang on the
// global pool instead of failing the test.
template <typename Engine>
void RunOnOneThread(const CsrGraph& g, const WalkSpec& spec) {
  ThreadPool pool(1);
  BaselineOptions options;
  options.pool = &pool;
  Engine(g, options).Run(spec);
}

// Walker-steps a run executed: the live entries of path rows 0..steps-1.
uint64_t LiveWalkerSteps(const PathSet& paths, uint32_t steps) {
  uint64_t live = 0;
  for (uint32_t s = 0; s < steps; ++s) {
    for (Vid v : paths.Row(s)) {
      live += v != kInvalidVid;
    }
  }
  return live;
}

TEST(KnightKingTest, PathsValid) {
  CsrGraph g = SkewedGraph(3000);
  KnightKingEngine engine(g);
  WalkResult result = engine.Run(SmallSpec(5000, 10));
  EXPECT_EQ(result.paths.num_walkers(), 5000u);
  EXPECT_TRUE(result.paths.ValidAgainst(g));
  EXPECT_EQ(result.stats.total_steps, 50000u);
}

TEST(KnightKingTest, XorshiftVariantAlsoValid) {
  CsrGraph g = SkewedGraph(1000);
  BaselineOptions options;
  options.use_mersenne = false;
  KnightKingEngine engine(g, options);
  WalkResult result = engine.Run(SmallSpec(2000, 6));
  EXPECT_TRUE(result.paths.ValidAgainst(g));
}

TEST(KnightKingTest, Node2VecValid) {
  CsrGraph g = SkewedGraph(1000);
  KnightKingEngine engine(g);
  WalkSpec spec = SmallSpec(2000, 6);
  spec.algorithm = WalkAlgorithm::kNode2Vec;
  spec.node2vec = {0.5, 2.0};
  WalkResult result = engine.Run(spec);
  EXPECT_TRUE(result.paths.ValidAgainst(g));
}

// The xorshift path seeds one RNG stream per (step, global walker), so the
// ring executor must reproduce the sequential walk bit-for-bit at every
// interleave depth.
TEST(KnightKingTest, InterleavedMatchesSequentialExactly) {
  CsrGraph g = SkewedGraph(1500);
  WalkSpec spec = SmallSpec(3000, 8, 17);
  spec.stop_probability = 0.1;  // early deaths stress the ring refill path
  BaselineOptions base;
  base.use_mersenne = false;
  base.interleave_depth = 1;
  WalkResult sequential = KnightKingEngine(g, base).Run(spec);
  for (uint32_t depth : {4u, 8u, 16u}) {
    BaselineOptions opts = base;
    opts.interleave_depth = depth;
    KnightKingEngine engine(g, opts);
    WalkResult ring = engine.Run(spec);
    EXPECT_EQ(engine.last_depth(), depth);
    ASSERT_TRUE(ring.paths.SameAs(sequential.paths)) << "depth " << depth;
    EXPECT_EQ(ring.visit_counts, sequential.visit_counts) << "depth " << depth;
    EXPECT_GT(engine.last_prefetch().Total(), 0u) << "depth " << depth;
  }
}

TEST(KnightKingTest, InterleavedWeightedMatchesSequentialExactly) {
  // Weighted draws route through the two-phase alias split (PickSlot /
  // ResolveSlot); the ring must keep those draws in the sequential order.
  GraphBuilder b(6);
  for (Vid v = 0; v < 6; ++v) {
    for (Vid t = 0; t < 6; ++t) {
      if (t != v) {
        b.AddEdge(v, t, static_cast<float>(1 + (v + t) % 4));
      }
    }
  }
  CsrGraph g = b.Build();
  WalkSpec spec = SmallSpec(4000, 6, 23);
  spec.use_edge_weights = true;
  BaselineOptions base;
  base.use_mersenne = false;
  WalkResult sequential = KnightKingEngine(g, base).Run(spec);
  for (uint32_t depth : {4u, 16u}) {
    BaselineOptions opts = base;
    opts.interleave_depth = depth;
    WalkResult ring = KnightKingEngine(g, opts).Run(spec);
    ASSERT_TRUE(ring.paths.SameAs(sequential.paths)) << "depth " << depth;
  }
}

TEST(KnightKingTest, InterleavedNode2VecMatchesSequentialExactly) {
  // The rejection loop draws a variable number of samples per walker; the
  // ring replays retries draw-for-draw.
  CsrGraph g = SkewedGraph(800);
  WalkSpec spec = SmallSpec(2000, 6, 29);
  spec.algorithm = WalkAlgorithm::kNode2Vec;
  spec.node2vec = {0.25, 4.0};
  BaselineOptions base;
  base.use_mersenne = false;
  WalkResult sequential = KnightKingEngine(g, base).Run(spec);
  for (uint32_t depth : {4u, 8u, 16u}) {
    BaselineOptions opts = base;
    opts.interleave_depth = depth;
    WalkResult ring = KnightKingEngine(g, opts).Run(spec);
    ASSERT_TRUE(ring.paths.SameAs(sequential.paths)) << "depth " << depth;
  }
}

TEST(KnightKingTest, MersennePathIgnoresInterleaveDepth) {
  // The Mersenne path seeds one stream per walker range and always runs
  // sequentially; a requested depth must not change the walk.
  CsrGraph g = SkewedGraph(600);
  WalkSpec spec = SmallSpec(1200, 5, 31);
  BaselineOptions base;  // use_mersenne = true
  WalkResult sequential = KnightKingEngine(g, base).Run(spec);
  BaselineOptions opts = base;
  opts.interleave_depth = 8;
  KnightKingEngine engine(g, opts);
  WalkResult rerun = engine.Run(spec);
  EXPECT_EQ(engine.last_depth(), 1u);
  EXPECT_EQ(engine.last_prefetch().Total(), 0u);
  ASSERT_TRUE(rerun.paths.SameAs(sequential.paths));
}

TEST(KnightKingTest, RejectsMetropolisHastings) {
  CsrGraph g = SkewedGraph(500);
  WalkSpec spec = SmallSpec(100, 3);
  spec.algorithm = WalkAlgorithm::kMetropolisHastings;
  EXPECT_DEATH(RunOnOneThread<KnightKingEngine>(g, spec),
               "Metropolis-Hastings is not supported");
}

TEST(GraphViteTest, PathsValid) {
  CsrGraph g = SkewedGraph(3000);
  GraphViteEngine engine(g);
  WalkResult result = engine.Run(SmallSpec(5000, 10));
  EXPECT_TRUE(result.paths.ValidAgainst(g));
}

TEST(GraphViteTest, StopProbabilityRespected) {
  CsrGraph g = SkewedGraph(500);
  GraphViteEngine engine(g);
  WalkSpec spec = SmallSpec(20000, 5);
  spec.stop_probability = 0.5;
  WalkResult result = engine.Run(spec);
  uint64_t alive = 0;
  for (Wid w = 0; w < result.paths.num_walkers(); ++w) {
    alive += result.paths.At(w, 5) != kInvalidVid;
  }
  EXPECT_NEAR(static_cast<double>(alive) / 20000, 1.0 / 32, 0.01);
}

TEST(GraphViteTest, RejectsMetropolisHastings) {
  CsrGraph g = SkewedGraph(500);
  WalkSpec spec = SmallSpec(100, 3);
  spec.algorithm = WalkAlgorithm::kMetropolisHastings;
  EXPECT_DEATH(RunOnOneThread<GraphViteEngine>(g, spec),
               "Metropolis-Hastings is not supported");
}

TEST(BaselineEquivalenceTest, TotalStepsCountsLiveWalkerSteps) {
  // total_steps is walker-steps executed, as FlashMob counts it: a walker
  // killed by the stop probability stops counting. Covers KnightKing's
  // sequential (Mersenne) path and its ring, and GraphVite.
  CsrGraph g = SkewedGraph(3000);
  WalkSpec spec = SmallSpec(20000, 10, 11);
  spec.stop_probability = 0.5;
  BaselineOptions ring;
  ring.use_mersenne = false;
  ring.interleave_depth = 8;
  const WalkResult runs[] = {KnightKingEngine(g).Run(spec),
                             KnightKingEngine(g, ring).Run(spec),
                             GraphViteEngine(g).Run(spec)};
  for (const WalkResult& r : runs) {
    EXPECT_EQ(r.stats.total_steps, LiveWalkerSteps(r.paths, spec.steps));
    EXPECT_LT(r.stats.total_steps, 20000u * 10 / 2);
  }
}

TEST(BaselineEquivalenceTest, AllEnginesAgreeOnVisitDistribution) {
  // FlashMob and both baselines implement the same stochastic process; per-vertex
  // visit shares on the hot vertices must agree across engines.
  CsrGraph g = SkewedGraph(2000);
  WalkSpec spec = SmallSpec(60000, 10, 5);
  spec.keep_paths = false;

  FlashMobEngine fmob(g);
  auto fm_counts = fmob.Run(spec).visit_counts;
  KnightKingEngine knk(g);
  auto knk_counts = knk.Run(spec).visit_counts;
  GraphViteEngine gv(g);
  auto gv_counts = gv.Run(spec).visit_counts;

  uint64_t total_fm = 0, total_knk = 0, total_gv = 0;
  for (Vid v = 0; v < g.num_vertices(); ++v) {
    total_fm += fm_counts[v];
    total_knk += knk_counts[v];
    total_gv += gv_counts[v];
  }
  for (Vid v = 0; v < 50; ++v) {
    double a = static_cast<double>(fm_counts[v]) / total_fm;
    double b = static_cast<double>(knk_counts[v]) / total_knk;
    double c = static_cast<double>(gv_counts[v]) / total_gv;
    ASSERT_NEAR(a, b, 0.1 * std::max(a, b) + 1e-5) << v;
    ASSERT_NEAR(a, c, 0.1 * std::max(a, c) + 1e-5) << v;
  }
}

TEST(BaselineEquivalenceTest, DeterministicGraphGivesIdenticalPaths) {
  // On a ring (out-degree 1) a walk is fully determined by its start, and an
  // unseeded single-episode spec starts every walker at the same vertex in
  // all three engines (one placement), so every engine and RNG walks
  // FlashMob's paths walker for walker.
  CsrGraph g = RingGraph(100);
  WalkSpec spec = SmallSpec(500, 7, 3);
  const PathSet flashmob = FlashMobEngine(g).Run(spec).paths;
  for (bool mersenne : {true, false}) {
    BaselineOptions options;
    options.use_mersenne = mersenne;
    const WalkResult runs[] = {KnightKingEngine(g, options).Run(spec),
                               GraphViteEngine(g, options).Run(spec)};
    for (const WalkResult& r : runs) {
      ASSERT_TRUE(r.paths.SameAs(flashmob)) << "mersenne " << mersenne;
    }
  }
}

TEST(BaselineEquivalenceTest, UnseededStartsMatchFlashMob) {
  // The same check on a skewed graph, across three placement blocks: path
  // row 0 of each baseline is FlashMob's row 0.
  CsrGraph g = SkewedGraph(5000);
  WalkSpec spec = SmallSpec(150001, 2, 3);
  const WalkResult flashmob = FlashMobEngine(g).Run(spec);
  ASSERT_EQ(flashmob.stats.episodes, 1u);
  for (bool mersenne : {true, false}) {
    BaselineOptions options;
    options.use_mersenne = mersenne;
    const WalkResult runs[] = {KnightKingEngine(g, options).Run(spec),
                               GraphViteEngine(g, options).Run(spec)};
    for (const WalkResult& r : runs) {
      ASSERT_TRUE(r.paths.Row(0) == flashmob.paths.Row(0))
          << "mersenne " << mersenne;
    }
  }
}

TEST(BaselineEquivalenceTest, SeededStartsPlaceEveryWalker) {
  // Walker j starts at start_vertices[j % size] in every engine and RNG, so
  // on a ring (out-degree 1) all three engines walk identical paths.
  CsrGraph g = RingGraph(100);
  WalkSpec spec = SmallSpec(500, 7, 3);
  spec.start_vertices = {42, 0, 99};
  const PathSet flashmob = FlashMobEngine(g).Run(spec).paths;
  for (bool mersenne : {true, false}) {
    BaselineOptions options;
    options.use_mersenne = mersenne;
    const WalkResult runs[] = {KnightKingEngine(g, options).Run(spec),
                               GraphViteEngine(g, options).Run(spec)};
    for (const WalkResult& r : runs) {
      ASSERT_EQ(r.paths.num_walkers(), 500u);
      for (Wid w = 0; w < 500; ++w) {
        ASSERT_EQ(r.paths.At(w, 0), spec.start_vertices[w % 3])
            << "walker " << w << " mersenne " << mersenne;
        for (uint32_t s = 0; s <= 7; ++s) {
          ASSERT_EQ(r.paths.At(w, s), flashmob.At(w, s));
        }
      }
    }
  }
}

TEST(BaselineEquivalenceTest, RejectOutOfRangeSeeds) {
  CsrGraph g = SkewedGraph(100);
  WalkSpec spec = SmallSpec(10, 1);
  spec.start_vertices = {1000};
  EXPECT_DEATH(RunOnOneThread<KnightKingEngine>(g, spec), "out of range");
  EXPECT_DEATH(RunOnOneThread<GraphViteEngine>(g, spec), "out of range");
}

TEST(BaselineTimingTest, PlacementIsOtherTimeAsInFlashMob) {
  // PerStepNs divides the same span in all three engines: placement in
  // other_s, steps in sample_s.
  CsrGraph g = SkewedGraph(2000);
  const WalkSpec spec = SmallSpec(20000, 4);
  for (bool mersenne : {true, false}) {
    BaselineOptions options;
    options.use_mersenne = mersenne;
    const WalkResult runs[] = {KnightKingEngine(g, options).Run(spec),
                               GraphViteEngine(g, options).Run(spec)};
    for (const WalkResult& r : runs) {
      EXPECT_GT(r.stats.times.other_s, 0) << "mersenne " << mersenne;
      EXPECT_GT(r.stats.times.sample_s, 0) << "mersenne " << mersenne;
    }
  }
}

// Every baseline walk is a function of its seed: paths and visit counts
// agree across pools of 1-4 threads, for each engine and RNG (and ring depth)
// and each walk the baselines take, all with stochastic termination.
struct BaselineConfig {
  const char* name;
  bool graphvite;
  bool mersenne;
  uint32_t depth;
};

const BaselineConfig kBaselineConfigs[] = {
    {"KnightKingMersenne", false, true, 1},
    {"KnightKingXorshiftDepth1", false, false, 1},
    {"KnightKingXorshiftDepth8", false, false, 8},
    {"GraphViteMersenne", true, true, 1},
    {"GraphViteXorshift", true, false, 1},
};

enum class BaselineWalk { kDeepWalk, kNode2Vec, kWeightedDeepWalk };

class BaselineDeterminismTest
    : public ::testing::TestWithParam<
          std::tuple<BaselineConfig, BaselineWalk>> {};

TEST_P(BaselineDeterminismTest, SameSeedSameWalksAcrossPoolSizes) {
  const auto [config, walk] = GetParam();
  PowerLawConfig graph_config;
  graph_config.degrees.num_vertices = 3000;
  graph_config.degrees.avg_degree = 8;
  graph_config.degrees.alpha = 0.8;
  graph_config.random_weights = true;
  const CsrGraph g = GeneratePowerLawGraph(graph_config);
  // Several walker ranges of each baseline, the last one short.
  WalkSpec spec = SmallSpec(20011, 6, 3);
  spec.stop_probability = 0.15;
  if (walk == BaselineWalk::kNode2Vec) {
    spec.algorithm = WalkAlgorithm::kNode2Vec;
    spec.node2vec = {2.0, 0.5};
  }
  spec.use_edge_weights = walk == BaselineWalk::kWeightedDeepWalk;
  auto run = [&](uint32_t threads) {
    ThreadPool pool(threads);
    BaselineOptions options;
    options.pool = &pool;
    options.use_mersenne = config.mersenne;
    options.interleave_depth = config.depth;
    return config.graphvite ? GraphViteEngine(g, options).Run(spec)
                            : KnightKingEngine(g, options).Run(spec);
  };
  const WalkResult reference = run(1);
  ASSERT_TRUE(reference.paths.ValidAgainst(g));
  for (uint32_t threads : {2u, 3u, 4u}) {
    const WalkResult r = run(threads);
    ASSERT_TRUE(r.paths.SameAs(reference.paths)) << threads << " threads";
    EXPECT_EQ(r.visit_counts, reference.visit_counts) << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndWalks, BaselineDeterminismTest,
    ::testing::Combine(::testing::ValuesIn(kBaselineConfigs),
                       ::testing::Values(BaselineWalk::kDeepWalk,
                                         BaselineWalk::kNode2Vec,
                                         BaselineWalk::kWeightedDeepWalk)),
    [](const ::testing::TestParamInfo<BaselineDeterminismTest::ParamType>&
           info) {
      const BaselineWalk walk = std::get<1>(info.param);
      return std::string(std::get<0>(info.param).name) +
             (walk == BaselineWalk::kDeepWalk   ? "_DeepWalk"
              : walk == BaselineWalk::kNode2Vec ? "_Node2Vec"
                                                : "_WeightedDeepWalk");
    });

TEST(BaselineInstrumentationTest, KnightKingMissesMoreThanFlashMob) {
  // The headline claim at test scale: on a skewed graph far larger than the
  // simulated caches, FlashMob's partitioned access pattern must produce fewer
  // L2+L3(+DRAM) misses per step than KnightKing's whole-graph random walk.
  CsrGraph g = SkewedGraph(60000);
  WalkSpec spec = SmallSpec(30000, 4, 9);
  spec.keep_paths = false;

  CacheInfo tiny;
  tiny.l1_bytes = 8 * 1024;
  tiny.l2_bytes = 64 * 1024;
  tiny.l3_bytes = 512 * 1024;

  CacheHierarchy fm_sim(tiny);
  FlashMobEngine fmob(g);
  WalkResult fm_run = fmob.RunInstrumented(spec, &fm_sim);

  CacheHierarchy knk_sim(tiny);
  KnightKingEngine knk(g);
  WalkResult knk_run = knk.RunInstrumented(spec, &knk_sim);

  double fm_dram_per_step = static_cast<double>(fm_sim.counters().hits[3]) /
                            fm_run.stats.total_steps;
  double knk_dram_per_step = static_cast<double>(knk_sim.counters().hits[3]) /
                             knk_run.stats.total_steps;
  EXPECT_LT(fm_dram_per_step, knk_dram_per_step);
}

}  // namespace
}  // namespace fm
