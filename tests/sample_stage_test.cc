#include "src/core/sample_stage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/algorithms/node2vec.h"
#include "src/gen/uniform_degree.h"
#include "src/util/stats.h"
#include "tests/test_util.h"

namespace fm {
namespace {

TEST(HasEdgeHookedTest, MatchesGraphHasEdge) {
  CsrGraph g = SmallGraph();
  NullMemHook hook;
  for (Vid v = 0; v < g.num_vertices(); ++v) {
    for (Vid u = 0; u < g.num_vertices(); ++u) {
      EXPECT_EQ(HasEdgeHooked(g, v, u, hook), g.HasEdge(v, u)) << v << " " << u;
    }
  }
}

class SampleKernelTest : public ::testing::TestWithParam<SamplePolicy> {};

TEST_P(SampleKernelTest, ProducesValidNeighbors) {
  CsrGraph g = GenerateUniformDegreeGraph(512, 6, 2, 512);
  PartitionPlan plan = PartitionPlan::BuildUniform(g, 1, GetParam());
  PresampleBuffers buffers(g, plan);
  XorShiftRng init(1);
  const Wid n = 4096;
  std::vector<Vid> walkers(n);
  for (auto& w : walkers) {
    w = static_cast<Vid>(init.NextBounded(512));
  }
  auto before = walkers;
  NullMemHook hook;
  SampleVpFirstOrder(g, 0, plan.vp(0), &buffers, walkers.data(), n, 0.0, nullptr,
                     /*chunk_seed=*/2, hook);
  for (Wid j = 0; j < n; ++j) {
    ASSERT_TRUE(g.HasEdge(before[j], walkers[j])) << j;
  }
}

TEST_P(SampleKernelTest, UniformDistributionPerVertex) {
  // All walkers parked on a degree-8 vertex: sampled next stops must be uniform
  // over its 8 distinct neighbors (statistically identical under PS and DS).
  GraphBuilder b(9);
  for (Vid t = 1; t <= 8; ++t) {
    b.AddEdge(0, t);
    b.AddEdge(t, 0);
  }
  CsrGraph g = DegreeSort(b.Build()).graph;
  PartitionPlan plan = PartitionPlan::BuildUniform(g, 1, GetParam());
  PresampleBuffers buffers(g, plan);
  const Wid n = 1 << 18;
  std::vector<Vid> walkers(n, 0);  // vertex 0 = the hub after sorting
  NullMemHook hook;
  SampleVpFirstOrder(g, 0, plan.vp(0), &buffers, walkers.data(), n, 0.0, nullptr,
                     /*chunk_seed=*/3, hook);
  std::vector<uint64_t> counts(9, 0);
  for (Vid v : walkers) {
    ++counts[v];
  }
  std::vector<uint64_t> observed(counts.begin() + 1, counts.end());
  std::vector<double> expected(8, n / 8.0);
  EXPECT_EQ(counts[0], 0u);
  EXPECT_TRUE(ChiSquareTestPasses(observed, expected));
}

INSTANTIATE_TEST_SUITE_P(Policies, SampleKernelTest,
                         ::testing::Values(SamplePolicy::kPS, SamplePolicy::kDS));

TEST(SampleKernelTest, UniformDegreeFastPathMatchesGeneralCsr) {
  // Same graph, same seed: the regular-partition arithmetic path and the general
  // CSR path must make identical choices (both draw index rng.NextBounded(deg)).
  CsrGraph g = GenerateUniformDegreeGraph(256, 4, 9, 256);
  PartitionPlan plan = PartitionPlan::BuildUniform(g, 1, SamplePolicy::kDS);
  ASSERT_TRUE(plan.vp(0).uniform_degree);
  PartitionPlan general = plan;
  // Forge a non-uniform view of the same partition by clearing the flag.
  // (Degree stays 4 for every vertex, so both paths sample the same edge set.)
  const_cast<VertexPartition&>(general.vp(0)).uniform_degree = false;

  const Wid n = 10000;
  std::vector<Vid> a(n), b2(n);
  XorShiftRng init(4);
  for (Wid j = 0; j < n; ++j) {
    a[j] = b2[j] = static_cast<Vid>(init.NextBounded(256));
  }
  NullMemHook hook;
  SampleVpFirstOrder(g, 0, plan.vp(0), nullptr, a.data(), n, 0.0, nullptr,
                     /*chunk_seed=*/5, hook);
  SampleVpFirstOrder(g, 0, general.vp(0), nullptr, b2.data(), n, 0.0, nullptr,
                     /*chunk_seed=*/5, hook);
  EXPECT_EQ(a, b2);
}

TEST(SampleKernelTest, DegreeOneNeedsNoRng) {
  CsrGraph g = RingGraph(64);
  PartitionPlan plan = PartitionPlan::BuildUniform(g, 1, SamplePolicy::kDS);
  ASSERT_TRUE(plan.vp(0).uniform_degree);
  ASSERT_EQ(plan.vp(0).degree, 1u);
  std::vector<Vid> walkers{0, 5, 63};
  NullMemHook hook;
  SampleVpFirstOrder(g, 0, plan.vp(0), nullptr, walkers.data(), 3, 0.0, nullptr,
                     /*chunk_seed=*/1, hook);
  EXPECT_EQ(walkers, (std::vector<Vid>{1, 6, 0}));
}

TEST(SampleKernelTest, DeadEndStaysInPlace) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);  // vertex 1 has no out-edges
  CsrGraph g = b.Build();
  PartitionPlan plan = PartitionPlan::BuildUniform(g, 1, SamplePolicy::kDS);
  std::vector<Vid> walkers{1, 1};
  NullMemHook hook;
  SampleVpFirstOrder(g, 0, plan.vp(0), nullptr, walkers.data(), 2, 0.0, nullptr,
                     /*chunk_seed=*/1, hook);
  EXPECT_EQ(walkers, (std::vector<Vid>{1, 1}));
}

TEST(SampleKernelTest, StopProbabilityTerminatesRoughlyThatFraction) {
  CsrGraph g = GenerateUniformDegreeGraph(128, 4, 3, 128);
  PartitionPlan plan = PartitionPlan::BuildUniform(g, 1, SamplePolicy::kDS);
  const Wid n = 1 << 17;
  std::vector<Vid> walkers(n, 0);
  NullMemHook hook;
  SampleVpFirstOrder(g, 0, plan.vp(0), nullptr, walkers.data(), n, 0.25, nullptr,
                     /*chunk_seed=*/6, hook);
  double dead = std::count(walkers.begin(), walkers.end(), kInvalidVid) /
                static_cast<double>(n);
  EXPECT_NEAR(dead, 0.25, 0.01);
}

TEST(Node2VecKernelTest, ValidTransitionsAndDistribution) {
  CsrGraph g = CompleteGraph(6);
  PartitionPlan plan = PartitionPlan::BuildUniform(g, 1, SamplePolicy::kDS);
  Node2VecParams params{0.5, 2.0};
  const Wid n = 1 << 17;
  std::vector<Vid> walkers(n, 0);
  std::vector<Vid> prevs(n, 2);
  NullMemHook hook;
  SampleVpNode2Vec(g, plan.vp(0), params, walkers.data(), prevs.data(), n, 0.0,
                   /*update_prevs=*/false, /*chunk_seed=*/8, hook);
  auto exact = Node2VecTransitionProbs(g, 0, 2, params);
  auto nbrs = g.neighbors(0);
  std::vector<uint64_t> counts(6, 0);
  for (Vid v : walkers) {
    ASSERT_TRUE(g.HasEdge(0, v));
    ++counts[v];
  }
  std::vector<uint64_t> observed;
  std::vector<double> expected;
  for (size_t i = 0; i < nbrs.size(); ++i) {
    observed.push_back(counts[nbrs[i]]);
    expected.push_back(exact[i] * n);
  }
  EXPECT_TRUE(ChiSquareTestPasses(observed, expected));
}

TEST(Node2VecKernelTest, FirstStepIsUniform) {
  CsrGraph g = CompleteGraph(5);
  PartitionPlan plan = PartitionPlan::BuildUniform(g, 1, SamplePolicy::kDS);
  const Wid n = 1 << 16;
  std::vector<Vid> walkers(n, 0);
  std::vector<Vid> prevs(n, kInvalidVid);
  NullMemHook hook;
  SampleVpNode2Vec(g, plan.vp(0), Node2VecParams{0.1, 10.0}, walkers.data(),
                   prevs.data(), n, 0.0, /*update_prevs=*/false,
                   /*chunk_seed=*/9, hook);
  std::vector<uint64_t> counts(5, 0);
  for (Vid v : walkers) {
    ++counts[v];
  }
  std::vector<uint64_t> observed(counts.begin() + 1, counts.end());
  std::vector<double> expected(4, n / 4.0);
  EXPECT_TRUE(ChiSquareTestPasses(observed, expected));
}

// An XorShiftRng that counts its uniform draws. Node2VecStep draws one per
// proposal that faces the accept test, so the count before the stop draw is
// the walker's tested proposals.
struct CountingRng {
  explicit CountingRng(uint64_t seed) : rng(seed) {}
  uint64_t NextBounded(uint64_t bound) { return rng.NextBounded(bound); }
  double NextDouble() {
    ++doubles;
    return rng.NextDouble();
  }
  XorShiftRng rng;
  uint64_t doubles = 0;
};

// Counts offset-pair reads. Node2VecStep reads cur's pair once and
// HasEdgeHooked reads prev's pair once per check.
struct OffsetPairCountingHook {
  static constexpr bool kEnabled = false;
  void Load(const void* addr, uint32_t bytes) {
    const Eid* p = static_cast<const Eid*>(addr);
    offset_pairs += bytes == 2 * sizeof(Eid) && p >= offsets.data() &&
                    p < offsets.data() + offsets.size();
  }
  void Store(const void*, uint32_t) {}
  std::span<const Eid> offsets;
  uint64_t offset_pairs = 0;
};

// Directed 200-vertex graph: vertices 190..199 have no out-edges (so they
// show up as both a walker's vertex and its predecessor with an empty list),
// the rest link to 2..40 random targets (the builder keeps duplicates, so
// lists repeat entries) and always to 190 and 0, so walks reach the dead ends.
CsrGraph GraphWithDeadEnds() {
  const Vid n = 200;
  GraphBuilder b(n);
  XorShiftRng rng(31);
  for (Vid u = 0; u < 190; ++u) {
    const uint64_t deg = 2 + rng.NextBounded(39);
    for (uint64_t e = 0; e < deg; ++e) {
      b.AddEdge(u, static_cast<Vid>(rng.NextBounded(n)));
    }
    b.AddEdge(u, 190);
    b.AddEdge(u, 0);
  }
  return b.Build();
}

class Node2VecLockstepTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(Node2VecLockstepTest, MatchesPerWalkerStepBitForBit) {
  // The lockstep kernel against a Node2VecStep loop, one walker at a time:
  // the same next stops, predecessors and accept-test tallies.
  const CsrGraph g = GraphWithDeadEnds();
  PartitionPlan plan = PartitionPlan::BuildUniform(g, 1, SamplePolicy::kDS);
  const Node2VecParams params{GetParam().first, GetParam().second};
  const Node2VecThresholds thresholds(params);
  const Vid n = g.num_vertices();
  XorShiftRng init(7);
  for (Wid count : {Wid{1}, Wid{31}, Wid{32}, Wid{33}, Wid{1000}}) {
    std::vector<Vid> cur(count);
    std::vector<Vid> prev(count);
    for (Wid i = 0; i < count; ++i) {
      cur[i] = static_cast<Vid>(init.NextBounded(n));
      // One in eight walkers takes its first step; half of the others come
      // from an out-neighbor of cur, the rest from anywhere (on a directed
      // graph a predecessor need not be among cur's out-neighbors).
      const uint64_t kind = init.NextBounded(16);
      auto nbrs = g.neighbors(cur[i]);
      if (kind < 2) {
        prev[i] = kInvalidVid;
      } else if (kind < 9 && !nbrs.empty()) {
        prev[i] = nbrs[init.NextBounded(nbrs.size())];
      } else {
        prev[i] = static_cast<Vid>(init.NextBounded(n));
      }
    }
    for (double stop : {0.0, 0.15}) {
      for (bool update_prevs : {false, true}) {
        const uint64_t chunk_seed = 1000 * count + (update_prevs ? 1 : 0);
        std::vector<Vid> want_walkers(count);
        std::vector<Vid> want_prevs(count);
        uint64_t want_proposals = 0;
        OffsetPairCountingHook counting_hook{.offsets = g.offsets()};
        for (Wid i = 0; i < count; ++i) {
          CountingRng rng(WalkerSeed(chunk_seed, i));
          Vid next = Node2VecStep(g, cur[i], prev[i], thresholds, rng,
                                  counting_hook);
          want_proposals += rng.doubles;
          if (stop > 0 && rng.NextDouble() < stop) {
            next = kInvalidVid;
          }
          want_walkers[i] = next;
          want_prevs[i] = update_prevs ? cur[i] : prev[i];
        }
        const uint64_t want_checks = counting_hook.offset_pairs - count;

        std::vector<Vid> walkers = cur;
        std::vector<Vid> prevs = prev;
        Node2VecCounts counts;
        NullMemHook hook;
        SampleVpNode2Vec(g, plan.vp(0), params, walkers.data(), prevs.data(),
                         count, stop, update_prevs, chunk_seed, hook, &counts);
        const std::string where = "count=" + std::to_string(count) +
                                  " stop=" + std::to_string(stop) +
                                  " update_prevs=" +
                                  std::to_string(update_prevs);
        EXPECT_EQ(walkers, want_walkers) << where;
        EXPECT_EQ(prevs, want_prevs) << where;
        EXPECT_EQ(counts.proposals, want_proposals) << where;
        EXPECT_EQ(counts.checks, want_checks) << where;
        EXPECT_EQ(counts.pre_decided, want_proposals - want_checks) << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PqSweep, Node2VecLockstepTest,
                         ::testing::Values(std::pair{1.0, 1.0},
                                           std::pair{0.5, 2.0},
                                           std::pair{2.0, 0.5},
                                           std::pair{0.25, 4.0},
                                           std::pair{4.0, 0.25}));

TEST(Node2VecLockstepTest, ChecksOnlyWhatTheDrawLeavesOpen) {
  // p = q = 1: every weight is the bound, so no proposal needs a check. At
  // p = 0.5, q = 2 (weights 2, 1, 0.5 against bound 2) a non-prev candidate
  // with u < 1/4 accepts and u >= 1/2 rejects without one: three in four
  // skip it.
  const CsrGraph g = CompleteGraph(40);
  PartitionPlan plan = PartitionPlan::BuildUniform(g, 1, SamplePolicy::kDS);
  const Wid n = 4096;
  NullMemHook hook;
  for (auto [p, q] : {std::pair{1.0, 1.0}, std::pair{0.5, 2.0}}) {
    std::vector<Vid> walkers(n, 0);
    std::vector<Vid> prevs(n, 1);
    Node2VecCounts counts;
    SampleVpNode2Vec(g, plan.vp(0), Node2VecParams{p, q}, walkers.data(),
                     prevs.data(), n, 0.0, /*update_prevs=*/false,
                     /*chunk_seed=*/3, hook, &counts);
    EXPECT_EQ(counts.proposals, counts.pre_decided + counts.checks);
    if (p == 1.0) {
      EXPECT_EQ(counts.proposals, n);  // every first proposal accepts
      EXPECT_EQ(counts.checks, 0u);
    } else {
      // The non-prev proposals (38 of 39) with u in [1/4, 1/2) need it.
      EXPECT_NEAR(static_cast<double>(counts.checks) /
                      static_cast<double>(counts.proposals),
                  0.25 * 38.0 / 39.0, 0.02);
    }
  }
}

}  // namespace
}  // namespace fm
