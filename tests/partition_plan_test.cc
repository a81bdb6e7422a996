#include "src/core/partition_plan.h"

#include <gtest/gtest.h>

#include "src/core/cost_model.h"
#include "src/gen/powerlaw_graph.h"
#include "src/gen/uniform_degree.h"
#include "tests/test_util.h"

namespace fm {
namespace {

CsrGraph SkewedGraph(Vid n = 50000, double avg = 16, double alpha = 0.85) {
  PowerLawConfig config;
  config.degrees.num_vertices = n;
  config.degrees.avg_degree = avg;
  config.degrees.alpha = alpha;
  config.degrees.max_degree = n / 16;
  return GeneratePowerLawGraph(config);
}

TEST(PartitionPlanTest, UniformPlanTilesGraph) {
  CsrGraph g = SkewedGraph(10000);
  for (uint32_t parts : {1u, 7u, 64u, 2048u}) {
    PartitionPlan plan = PartitionPlan::BuildUniform(g, parts, SamplePolicy::kDS);
    plan.CheckValid();
    EXPECT_LE(plan.num_vps(), parts == 1 ? 1u : 2 * parts);
    EXPECT_EQ(plan.vps().front().begin, 0u);
    EXPECT_EQ(plan.vps().back().end, g.num_vertices());
  }
}

TEST(PartitionPlanTest, VpOfMatchesLinearSearch) {
  CsrGraph g = SkewedGraph(30000);
  AnalyticCostModel model;
  PartitionPlan::Config config;
  config.num_groups = 32;
  config.max_partitions = 256;
  PartitionPlan plan = PartitionPlan::BuildOptimized(g, g.num_vertices(), model,
                                                     config);
  plan.CheckValid();
  for (Vid v = 0; v < g.num_vertices(); v += 97) {
    uint32_t arithmetic = plan.VpOf(v);
    const VertexPartition& vp = plan.vp(arithmetic);
    EXPECT_LE(vp.begin, v);
    EXPECT_LT(v, vp.end);
  }
}

TEST(PartitionPlanTest, OptimizedRespectsFanoutLimit) {
  CsrGraph g = SkewedGraph(100000, 12, 0.8);
  AnalyticCostModel model;
  PartitionPlan::Config config;
  config.num_groups = 64;
  config.max_partitions = 128;
  PartitionPlan plan =
      PartitionPlan::BuildOptimized(g, g.num_vertices() * 2, model, config);
  plan.CheckValid();
  EXPECT_LE(plan.num_outer_bins(), 128u);
}

TEST(PartitionPlanTest, OptimizedAssignsPsToHubsAndDsToTail) {
  CsrGraph g = SkewedGraph(200000, 16, 0.9);
  AnalyticCostModel model;
  PartitionPlan::Config config;
  config.num_groups = 64;
  config.max_partitions = 2048;
  PartitionPlan plan =
      PartitionPlan::BuildOptimized(g, g.num_vertices() * 4, model, config);
  // The last partitions hold degree-1/2 vertices: DS must win there (Fig 10's
  // "lowest degree vertices are usually using D[S]").
  EXPECT_EQ(plan.vps().back().policy, SamplePolicy::kDS);
  // Some partition with hub-grade average degree should use PS.
  bool any_ps = false;
  for (const auto& vp : plan.vps()) {
    any_ps |= vp.policy == SamplePolicy::kPS;
  }
  EXPECT_TRUE(any_ps);
}

TEST(PartitionPlanTest, UniformDegreeDetection) {
  CsrGraph g = GenerateUniformDegreeGraph(4096, 3, 5);
  PartitionPlan plan = PartitionPlan::BuildUniform(g, 16, SamplePolicy::kDS);
  for (const auto& vp : plan.vps()) {
    EXPECT_TRUE(vp.uniform_degree);
    EXPECT_EQ(vp.degree, 3u);
  }
}

TEST(PartitionPlanTest, ManualHeuristicValidAndBounded) {
  CsrGraph g = SkewedGraph(80000);
  PartitionPlan::Config config;
  config.num_groups = 64;
  config.max_partitions = 512;
  PartitionPlan plan =
      PartitionPlan::BuildManualHeuristic(g, g.num_vertices(), config);
  plan.CheckValid();
  EXPECT_LE(plan.num_vps(), 512u);
}

TEST(PartitionPlanTest, InternalShuffleChosenUnderTightFanout) {
  // With a tiny fan-out budget and a large graph, the DP must put at least one
  // group behind an internal shuffle rather than give up on small VPs entirely.
  CsrGraph g = SkewedGraph(100000, 16, 0.9);
  AnalyticCostModel model;
  PartitionPlan::Config config;
  config.num_groups = 32;
  config.max_partitions = 40;  // fewer bins than groups want
  PartitionPlan plan =
      PartitionPlan::BuildOptimized(g, g.num_vertices() * 8, model, config);
  plan.CheckValid();
  EXPECT_LE(plan.num_outer_bins(), 40u);
  // Either every group coarsened to 1 VP, or internal shuffles appeared; with high
  // density the cost model should prefer some internal shuffles. Accept both but
  // verify the plan machinery handles the flag when present.
  if (plan.has_internal_shuffle()) {
    bool found = false;
    for (const auto& grp : plan.groups()) {
      if (grp.internal_shuffle) {
        EXPECT_GT(grp.vp_count, 1u);
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(PartitionPlanTest, SmallGraphSingleVp) {
  CsrGraph g = SmallSortedGraph();
  AnalyticCostModel model;
  PartitionPlan::Config config;
  config.num_groups = 64;
  PartitionPlan plan = PartitionPlan::BuildOptimized(g, 4, model, config);
  plan.CheckValid();
  EXPECT_GE(plan.num_vps(), 1u);
  EXPECT_EQ(plan.vps().back().end, 4u);
}

TEST(PartitionPlanTest, DescribeMentionsEveryGroup) {
  CsrGraph g = SkewedGraph(10000);
  PartitionPlan plan = PartitionPlan::BuildUniform(g, 8, SamplePolicy::kPS);
  std::string desc = plan.Describe();
  EXPECT_NE(desc.find("group 0"), std::string::npos);
  EXPECT_NE(desc.find("vps="), std::string::npos);
}

TEST(PartitionPlanTest, GroupSizesArePowerOfTwoExceptLast) {
  CsrGraph g = SkewedGraph(33000);  // not a power of two
  AnalyticCostModel model;
  PartitionPlan::Config config;
  config.num_groups = 16;
  PartitionPlan plan = PartitionPlan::BuildOptimized(g, 33000, model, config);
  const auto& groups = plan.groups();
  for (size_t i = 0; i + 1 < groups.size(); ++i) {
    Vid size = groups[i].end - groups[i].begin;
    EXPECT_EQ(size & (size - 1), 0u) << "group " << i;
    EXPECT_EQ(size, groups[0].end - groups[0].begin);
  }
}

}  // namespace
}  // namespace fm
