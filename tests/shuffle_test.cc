#include "src/core/shuffle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "src/core/cost_model.h"
#include "src/gen/powerlaw_graph.h"
#include "src/util/rng.h"

namespace fm {
namespace {

CsrGraph TestGraph(Vid n) {
  PowerLawConfig config;
  config.degrees.num_vertices = n;
  config.degrees.avg_degree = 8;
  config.degrees.alpha = 0.8;
  return GeneratePowerLawGraph(config);
}

std::vector<Vid> RandomWalkers(Wid count, Vid n, uint64_t seed,
                               double dead_fraction = 0.0) {
  std::vector<Vid> w(count);
  XorShiftRng rng(seed);
  for (Wid j = 0; j < count; ++j) {
    w[j] = (dead_fraction > 0 && rng.NextDouble() < dead_fraction)
               ? kInvalidVid
               : static_cast<Vid>(rng.NextBounded(n));
  }
  return w;
}

class ShuffleTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  void SetUp() override {
    graph_ = TestGraph(20000);
    plan_ = PartitionPlan::BuildUniform(graph_, GetParam(), SamplePolicy::kDS);
    pool_ = std::make_unique<ThreadPool>(3);
  }

  CsrGraph graph_;
  PartitionPlan plan_;
  std::unique_ptr<ThreadPool> pool_;
};

TEST_P(ShuffleTest, ScatterIsGroupedPermutation) {
  Shuffler shuffler(&plan_, pool_.get());
  const Wid n = 50000;
  auto w = RandomWalkers(n, graph_.num_vertices(), 1);
  std::vector<Vid> sw(n);
  shuffler.Scatter(w.data(), nullptr, n, sw.data(), nullptr);

  // Multiset equality.
  auto ws = w;
  auto sws = sw;
  std::sort(ws.begin(), ws.end());
  std::sort(sws.begin(), sws.end());
  EXPECT_EQ(ws, sws);

  // Grouping: each VP chunk contains only its own vertices.
  const auto& offs = shuffler.vp_offsets();
  ASSERT_EQ(offs.size(), plan_.num_vps() + 2);
  for (uint32_t vp = 0; vp < plan_.num_vps(); ++vp) {
    for (Wid j = offs[vp]; j < offs[vp + 1]; ++j) {
      ASSERT_EQ(plan_.VpOf(sw[j]), vp);
    }
  }
}

TEST_P(ShuffleTest, OrderWithinPartitionFollowsScanOrder) {
  // Within a VP chunk, elements produced by one scan chunk must appear in scan
  // order (the implicit-identity invariant of §4.3). With a single-thread pool the
  // whole chunk is one scan, so the order must match a stable partition of W.
  ThreadPool serial(1);
  Shuffler shuffler(&plan_, &serial);
  const Wid n = 20000;
  auto w = RandomWalkers(n, graph_.num_vertices(), 2);
  std::vector<Vid> sw(n);
  shuffler.Scatter(w.data(), nullptr, n, sw.data(), nullptr);

  std::vector<std::vector<Vid>> expected(plan_.num_vps());
  for (Wid j = 0; j < n; ++j) {
    expected[plan_.VpOf(w[j])].push_back(w[j]);
  }
  const auto& offs = shuffler.vp_offsets();
  for (uint32_t vp = 0; vp < plan_.num_vps(); ++vp) {
    std::vector<Vid> got(sw.begin() + offs[vp], sw.begin() + offs[vp + 1]);
    ASSERT_EQ(got, expected[vp]) << "vp " << vp;
  }
}

TEST_P(ShuffleTest, GatherInvertsScatter) {
  Shuffler shuffler(&plan_, pool_.get());
  const Wid n = 40000;
  auto w = RandomWalkers(n, graph_.num_vertices(), 3);
  std::vector<Vid> sw(n);
  shuffler.Scatter(w.data(), nullptr, n, sw.data(), nullptr);
  // Without modifying SW, gather must reproduce W exactly.
  std::vector<Vid> w_next(n);
  ASSERT_TRUE(
      shuffler.Gather(w.data(), n, sw.data(), w_next.data(), nullptr, nullptr)
          .ok());
  EXPECT_EQ(w_next, w);
}

TEST_P(ShuffleTest, GatherRoutesUpdatedValuesToRightWalkers) {
  // Tag each SW slot with a value derived from its content, then check each walker
  // receives the tag of its own element.
  Shuffler shuffler(&plan_, pool_.get());
  const Wid n = 30000;
  auto w = RandomWalkers(n, graph_.num_vertices(), 4);
  std::vector<Vid> sw(n);
  shuffler.Scatter(w.data(), nullptr, n, sw.data(), nullptr);
  for (Wid p = 0; p < n; ++p) {
    sw[p] = sw[p] + 1;  // "sample": next = cur + 1
  }
  std::vector<Vid> w_next(n);
  ASSERT_TRUE(
      shuffler.Gather(w.data(), n, sw.data(), w_next.data(), nullptr, nullptr)
          .ok());
  for (Wid j = 0; j < n; ++j) {
    ASSERT_EQ(w_next[j], w[j] + 1) << j;
  }
}

TEST_P(ShuffleTest, AuxStreamFollowsSamePermutation) {
  Shuffler shuffler(&plan_, pool_.get());
  const Wid n = 20000;
  auto w = RandomWalkers(n, graph_.num_vertices(), 5);
  // aux[j] encodes j so we can detect the permutation directly.
  std::vector<Vid> aux(n);
  for (Wid j = 0; j < n; ++j) {
    aux[j] = static_cast<Vid>(j);
  }
  std::vector<Vid> sw(n), sw_aux(n);
  shuffler.Scatter(w.data(), aux.data(), n, sw.data(), sw_aux.data());
  for (Wid p = 0; p < n; ++p) {
    ASSERT_EQ(sw[p], w[sw_aux[p]]);
  }
}

TEST_P(ShuffleTest, DeadWalkersParkInDeadBin) {
  Shuffler shuffler(&plan_, pool_.get());
  const Wid n = 30000;
  auto w = RandomWalkers(n, graph_.num_vertices(), 6, /*dead_fraction=*/0.3);
  std::vector<Vid> sw(n);
  shuffler.Scatter(w.data(), nullptr, n, sw.data(), nullptr);
  Wid dead_expected = std::count(w.begin(), w.end(), kInvalidVid);
  EXPECT_EQ(shuffler.dead_count(), dead_expected);
  const auto& offs = shuffler.vp_offsets();
  for (Wid p = offs[plan_.num_vps()]; p < offs[plan_.num_vps() + 1]; ++p) {
    ASSERT_EQ(sw[p], kInvalidVid);
  }
  // Round trip keeps them dead and everyone else intact.
  std::vector<Vid> w_next(n);
  ASSERT_TRUE(
      shuffler.Gather(w.data(), n, sw.data(), w_next.data(), nullptr, nullptr)
          .ok());
  EXPECT_EQ(w_next, w);
}

TEST_P(ShuffleTest, TwoLevelLayoutMatchesOneLevel) {
  Shuffler one_level(&plan_, pool_.get());
  Shuffler two_level(&plan_, pool_.get());
  const Wid n = 25000;
  auto w = RandomWalkers(n, graph_.num_vertices(), 7, 0.05);
  std::vector<Vid> aux(n);
  for (Wid j = 0; j < n; ++j) {
    aux[j] = static_cast<Vid>(j * 2654435761u);
  }
  std::vector<Vid> sw_a(n), aux_a(n), sw_b(n), aux_b(n);
  one_level.Scatter(w.data(), aux.data(), n, sw_a.data(), aux_a.data());
  two_level.ScatterTwoLevelForTest(w.data(), aux.data(), n, sw_b.data(),
                                   aux_b.data());
  EXPECT_EQ(sw_a, sw_b);
  EXPECT_EQ(aux_a, aux_b);
}

TEST_P(ShuffleTest, GatherWalkerCountMismatchIsAnError) {
  // A gather over a different walker count than the last scatter cannot be a
  // bijection; it must come back as a structured error (not abort — the
  // engine turns it into a crash with context, library callers may not).
  const Wid n = 10000;
  auto w = RandomWalkers(n, graph_.num_vertices(), 13);
  std::vector<Vid> sw(n), w_next(n);

  Shuffler shuffler(&plan_, pool_.get());
  shuffler.Scatter(w.data(), nullptr, n, sw.data(), nullptr);
  Status st = shuffler.Gather(w.data(), n - 1, sw.data(), w_next.data(),
                              nullptr, nullptr);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("9999"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("10000"), std::string::npos) << st.message();
  st = shuffler.Gather(w.data(), n + 1, sw.data(), w_next.data(), nullptr,
                       nullptr);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  // The failed gathers must not have poisoned the shuffle state: the correct
  // replay still works.
  ASSERT_TRUE(
      shuffler.Gather(w.data(), n, sw.data(), w_next.data(), nullptr, nullptr)
          .ok());
  EXPECT_EQ(w_next, w);
}

TEST_P(ShuffleTest, SimulatedReplayTouchesOnlyKnownArrays) {
  // The cachesim replay must stay inside the arrays the real pass touches —
  // a loose pointer here silently corrupts the Fig 1b attribution.
  const Wid n = 20000;
  auto w = RandomWalkers(n, graph_.num_vertices(), 14, 0.1);
  std::vector<Vid> sw(n), w_next(n);
  Shuffler shuffler(&plan_, pool_.get());
  shuffler.Scatter(w.data(), nullptr, n, sw.data(), nullptr);
  uint64_t accesses = 0;
  auto count = [&accesses](const void* p, uint32_t bytes) {
    ASSERT_NE(p, nullptr);
    ASSERT_GT(bytes, 0u);
    ++accesses;
  };
  shuffler.SimulateScatter(w.data(), nullptr, n, sw.data(), nullptr, count);
  EXPECT_GE(accesses, static_cast<uint64_t>(n));
  ASSERT_TRUE(
      shuffler.Gather(w.data(), n, sw.data(), w_next.data(), nullptr, nullptr)
          .ok());
  accesses = 0;
  shuffler.SimulateGather(w.data(), n, sw.data(), nullptr, w_next.data(),
                          nullptr, count);
  EXPECT_GE(accesses, static_cast<uint64_t>(n));
}

INSTANTIATE_TEST_SUITE_P(FanoutSweep, ShuffleTest,
                         ::testing::Values(1, 4, 64, 1024));

TEST(ShuffleInternalGroupTest, RoundTripWithInternalShuffle) {
  // Force a plan with internal shuffles via a tight fan-out budget, then verify the
  // full scatter/gather round trip.
  CsrGraph g = TestGraph(60000);
  AnalyticCostModel model;
  PartitionPlan::Config config;
  config.num_groups = 32;
  config.max_partitions = 36;
  PartitionPlan plan =
      PartitionPlan::BuildOptimized(g, g.num_vertices() * 8, model, config);
  if (!plan.has_internal_shuffle()) {
    GTEST_SKIP() << "cost model chose no internal shuffle on this instance";
  }
  ThreadPool pool(3);
  Shuffler shuffler(&plan, &pool);
  const Wid n = 50000;
  auto w = RandomWalkers(n, g.num_vertices(), 8);
  std::vector<Vid> sw(n), w_next(n);
  shuffler.Scatter(w.data(), nullptr, n, sw.data(), nullptr);
  const auto& offs = shuffler.vp_offsets();
  for (uint32_t vp = 0; vp < plan.num_vps(); ++vp) {
    for (Wid j = offs[vp]; j < offs[vp + 1]; ++j) {
      ASSERT_EQ(plan.VpOf(sw[j]), vp);
    }
  }
  ASSERT_TRUE(
      shuffler.Gather(w.data(), n, sw.data(), w_next.data(), nullptr, nullptr)
          .ok());
  EXPECT_EQ(w_next, w);
}

TEST(ShuffleEdgeCaseTest, EmptyAndSingleWalker) {
  CsrGraph g = TestGraph(1000);
  PartitionPlan plan = PartitionPlan::BuildUniform(g, 8, SamplePolicy::kDS);
  ThreadPool pool(2);
  Shuffler shuffler(&plan, &pool);
  shuffler.Scatter(nullptr, nullptr, 0, nullptr, nullptr);
  EXPECT_EQ(shuffler.vp_offsets().back(), 0u);

  std::vector<Vid> w{42}, sw(1), w_next(1);
  shuffler.Scatter(w.data(), nullptr, 1, sw.data(), nullptr);
  EXPECT_EQ(sw[0], 42u);
  ASSERT_TRUE(
      shuffler.Gather(w.data(), 1, sw.data(), w_next.data(), nullptr, nullptr)
          .ok());
  EXPECT_EQ(w_next[0], 42u);
}

}  // namespace
}  // namespace fm
