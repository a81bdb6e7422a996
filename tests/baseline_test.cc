#include <gtest/gtest.h>

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
  // The Mersenne path keeps KnightKing's historical per-chunk streams and
  // always runs sequentially; a requested depth must not change the walk.
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
  // On a ring (out-degree 1) the walk is fully determined by the start vertex, so
  // visit counts per walker match exactly across engines given the same starts...
  // starts are seeded differently per engine, so compare structure instead: every
  // path is the unique ring walk from its start.
  CsrGraph g = RingGraph(100);
  WalkSpec spec = SmallSpec(500, 7, 3);
  KnightKingEngine knk(g);
  WalkResult r = knk.Run(spec);
  for (Wid w = 0; w < 500; ++w) {
    for (uint32_t s = 0; s < 7; ++s) {
      ASSERT_EQ(r.paths.At(w, s + 1), (r.paths.At(w, s) + 1) % 100);
    }
  }
}

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
