#include "src/sampling/rejection.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>

#include "src/core/algorithms/node2vec.h"
#include "src/core/sample_stage.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "tests/test_util.h"

namespace fm {
namespace {

TEST(Node2VecWeightTest, ThreeCases) {
  CsrGraph g = SmallGraph();  // 0->{1,2,3}, 1->{0,2}, 2->{3}, 3->{0}
  Node2VecParams params{2.0, 4.0};
  NullMemHook hook;
  // Walk ... 1 -> 0 -> x. prev=1.
  EXPECT_DOUBLE_EQ(Node2VecWeight(g, 1, 1, params, hook), 0.5);   // 1/p
  EXPECT_DOUBLE_EQ(Node2VecWeight(g, 1, 2, params, hook), 1.0);   // 1->2: dist 1
  EXPECT_DOUBLE_EQ(Node2VecWeight(g, 1, 3, params, hook), 0.25);  // dist 2: 1/q
}

TEST(Node2VecTransitionProbsTest, NormalizedAndConsistent) {
  CsrGraph g = SmallGraph();
  Node2VecParams params{0.5, 2.0};
  auto probs = Node2VecTransitionProbs(g, 0, 1, params);
  ASSERT_EQ(probs.size(), 3u);
  double sum = 0;
  for (double p : probs) {
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // Weights out of 0 with prev=1: to 1 (prev): 1/p=2, to 2 (1->2 edge): 1, to 3: 1/q=0.5.
  EXPECT_NEAR(probs[0], 2.0 / 3.5, 1e-12);
  EXPECT_NEAR(probs[1], 1.0 / 3.5, 1e-12);
  EXPECT_NEAR(probs[2], 0.5 / 3.5, 1e-12);
}

class RejectionDistributionTest
    : public ::testing::TestWithParam<Node2VecParams> {};

TEST_P(RejectionDistributionTest, MatchesExactDistribution) {
  CsrGraph g = CompleteGraph(8);
  Node2VecParams params = GetParam();
  const Vid cur = 0;
  const Vid prev = 3;
  auto exact = Node2VecTransitionProbs(g, cur, prev, params);
  auto nbrs = g.neighbors(cur);

  // The step every engine runs (FlashMob's kernel and both baselines).
  XorShiftRng rng(17);
  NullMemHook hook;
  const Node2VecThresholds thresholds(params);
  const uint64_t draws = 1 << 18;
  std::map<Vid, uint64_t> counts;
  for (uint64_t i = 0; i < draws; ++i) {
    ++counts[Node2VecStep(g, cur, prev, thresholds, rng, hook)];
  }
  std::vector<uint64_t> observed;
  std::vector<double> expected;
  for (size_t i = 0; i < nbrs.size(); ++i) {
    observed.push_back(counts[nbrs[i]]);
    expected.push_back(exact[i] * draws);
  }
  EXPECT_TRUE(ChiSquareTestPasses(observed, expected))
      << "p=" << params.p << " q=" << params.q;
}

INSTANTIATE_TEST_SUITE_P(PqSweep, RejectionDistributionTest,
                         ::testing::Values(Node2VecParams{1.0, 1.0},
                                           Node2VecParams{0.25, 4.0},
                                           Node2VecParams{4.0, 0.25},
                                           Node2VecParams{2.0, 2.0},
                                           Node2VecParams{0.5, 0.5}));

TEST(Node2VecParamsUsableTest, WeightsWithin2To53OfEachOther) {
  // The weights {1, 1/p, 1/q} may span at most 2^53, NextDouble's resolution.
  EXPECT_TRUE(Node2VecParamsUsable({1.0, 1.0}));
  EXPECT_TRUE(Node2VecParamsUsable({0x1p-53, 1.0}));   // 1/p = 2^53
  EXPECT_FALSE(Node2VecParamsUsable({0x1p-54, 1.0}));  // 1/p = 2^54
  EXPECT_TRUE(Node2VecParamsUsable({1.0, 0x1p53}));    // 1/q = 2^-53
  EXPECT_FALSE(Node2VecParamsUsable({1.0, 0x1p54}));   // 1/q = 2^-54
  // The span counts between 1/p and 1/q too: 2^26 over 2^-27 is 2^53.
  EXPECT_TRUE(Node2VecParamsUsable({0x1p-26, 0x1p27}));
  EXPECT_FALSE(Node2VecParamsUsable({0x1p-26, 0x1p28}));
  EXPECT_FALSE(Node2VecParamsUsable({std::nextafter(0x1p-53, 0.0), 1.0}));
  // 1/p overflows; weights below the resolution; not finite or not > 0.
  EXPECT_FALSE(Node2VecParamsUsable({1e-310, 1.0}));
  EXPECT_FALSE(Node2VecParamsUsable({1.0, 1e-310}));
  EXPECT_FALSE(Node2VecParamsUsable({1e300, 1.0}));
  EXPECT_FALSE(Node2VecParamsUsable({0.0, 1.0}));
  EXPECT_FALSE(Node2VecParamsUsable({1.0, -2.0}));
  EXPECT_FALSE(Node2VecParamsUsable(
      {std::numeric_limits<double>::infinity(), 1.0}));
  EXPECT_FALSE(Node2VecParamsUsable(
      {1.0, std::numeric_limits<double>::quiet_NaN()}));
}

TEST(RejectionTest, UniformWhenPQOne) {
  // p=q=1 reduces node2vec to a uniform first-order walk.
  CsrGraph g = SmallGraph();
  auto probs = Node2VecTransitionProbs(g, 0, 3, Node2VecParams{1.0, 1.0});
  for (double p : probs) {
    EXPECT_NEAR(p, 1.0 / 3.0, 1e-12);
  }
}

TEST(RejectionTest, DegreeOneAlwaysReturnsOnlyNeighbor) {
  CsrGraph g = SmallGraph();
  XorShiftRng rng(5);
  NullMemHook hook;
  const Node2VecParams params{0.1, 9.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(
        Node2VecStep(g, 2, 0, Node2VecThresholds(params), rng, hook), 3u);
  }
}

}  // namespace
}  // namespace fm
