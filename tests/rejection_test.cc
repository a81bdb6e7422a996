#include "src/sampling/rejection.h"

#include <gtest/gtest.h>

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
  const double bound = Node2VecBound(params);
  const uint64_t draws = 1 << 18;
  std::map<Vid, uint64_t> counts;
  for (uint64_t i = 0; i < draws; ++i) {
    ++counts[Node2VecStep(g, cur, prev, params, bound, rng, hook)];
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
        Node2VecStep(g, 2, 0, params, Node2VecBound(params), rng, hook), 3u);
  }
}

}  // namespace
}  // namespace fm
