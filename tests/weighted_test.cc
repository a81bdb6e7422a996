// Weighted-graph and weighted-walk tests: builder/IO/degree-sort weight plumbing,
// per-vertex alias tables, and weighted first-order walks across all engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <vector>

#include "src/baseline/knightking_engine.h"
#include "src/core/engine.h"
#include "src/gen/powerlaw_graph.h"
#include "src/graph/degree_sort.h"
#include "src/graph/edge_io.h"
#include "src/cachesim/mem_hook.h"
#include "src/sampling/vertex_alias.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "tests/test_util.h"

namespace fm {
namespace {

// 0 -> 1 (w=1), 0 -> 2 (w=3), 0 -> 3 (w=6); plus return edges so the walk lives.
CsrGraph WeightedFan() {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 1.0f);
  b.AddEdge(0, 2, 3.0f);
  b.AddEdge(0, 3, 6.0f);
  for (Vid v = 1; v < 4; ++v) {
    b.AddEdge(v, 0, 1.0f);
  }
  return b.Build();
}

TEST(WeightedBuilderTest, WeightsFollowSortedAdjacency) {
  GraphBuilder b(3);
  b.AddEdge(0, 2, 5.0f);  // added out of order on purpose
  b.AddEdge(0, 1, 2.0f);
  CsrGraph g = b.Build();
  ASSERT_TRUE(g.weighted());
  auto nbrs = g.neighbors(0);
  auto wts = g.neighbor_weights(0);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0], 1u);
  EXPECT_FLOAT_EQ(wts[0], 2.0f);
  EXPECT_EQ(nbrs[1], 2u);
  EXPECT_FLOAT_EQ(wts[1], 5.0f);
}

TEST(WeightedBuilderTest, AllOnesStaysUnweighted) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0, 1.0f);
  CsrGraph g = b.Build();
  EXPECT_FALSE(g.weighted());
}

TEST(WeightedBuilderTest, RejectsNonPositiveWeight) {
  GraphBuilder b(2);
  EXPECT_THROW(b.AddEdge(0, 1, 0.0f), std::invalid_argument);
  EXPECT_THROW(b.AddEdge(0, 1, -2.0f), std::invalid_argument);
}

TEST(WeightedBuilderTest, DedupSumsWeights) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 2.0f);
  b.AddEdge(0, 1, 3.0f);
  CsrGraph g = b.Build({.remove_duplicate_edges = true});
  ASSERT_EQ(g.degree(0), 1u);
  EXPECT_FLOAT_EQ(g.neighbor_weights(0)[0], 5.0f);
}

TEST(WeightedIoTest, TextRoundTripWithWeights) {
  auto dir = std::filesystem::temp_directory_path() / "fm_weighted_io";
  std::filesystem::create_directories(dir);
  CsrGraph original = WeightedFan();
  SaveEdgeListText(original, (dir / "w.txt").string());
  CsrGraph loaded = LoadEdgeListText((dir / "w.txt").string());
  EXPECT_TRUE(loaded.weighted());
  EXPECT_TRUE(Identical(loaded, original));
  std::filesystem::remove_all(dir);
}

TEST(WeightedIoTest, BinaryAndMappedRoundTripWithWeights) {
  auto dir = std::filesystem::temp_directory_path() / "fm_weighted_bin";
  std::filesystem::create_directories(dir);
  CsrGraph original = WeightedFan();
  SaveCsrBinary(original, (dir / "w.csr").string());
  CsrGraph loaded = LoadCsrBinary((dir / "w.csr").string());
  EXPECT_TRUE(Identical(loaded, original));
  CsrGraph mapped = LoadCsrBinaryMapped((dir / "w.csr").string());
  EXPECT_TRUE(mapped.weighted());
  EXPECT_TRUE(Identical(mapped, original));
  std::filesystem::remove_all(dir);
}

TEST(WeightedDegreeSortTest, WeightsSurviveRelabelling) {
  // Shuffle a weighted graph through DegreeSort; each relabelled edge must keep
  // its original weight.
  GraphBuilder b(5);
  // Unique weight per edge encodes (from, to).
  for (Vid u = 0; u < 5; ++u) {
    for (Vid v = 0; v < 5; ++v) {
      if (u != v && (u + v) % 2 == 0) {
        b.AddEdge(u, v, static_cast<float>(10 * u + v + 1));
      }
    }
  }
  b.AddEdge(4, 0, 100.0f);  // break degree ties
  CsrGraph g = b.Build();
  DegreeSortedGraph sorted = DegreeSort(g);
  ASSERT_TRUE(sorted.graph.weighted());
  for (Vid nv = 0; nv < sorted.graph.num_vertices(); ++nv) {
    Vid old_v = sorted.new_to_old[nv];
    auto nbrs = sorted.graph.neighbors(nv);
    auto wts = sorted.graph.neighbor_weights(nv);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      Vid old_t = sorted.new_to_old[nbrs[i]];
      // Find the weight in the original adjacency.
      auto onbrs = g.neighbors(old_v);
      auto owts = g.neighbor_weights(old_v);
      bool found = false;
      for (size_t j = 0; j < onbrs.size(); ++j) {
        if (onbrs[j] == old_t && owts[j] == wts[i]) {
          found = true;
        }
      }
      ASSERT_TRUE(found) << nv << "->" << nbrs[i];
    }
  }
}

TEST(VertexAliasTest, MatchesWeightDistribution) {
  CsrGraph g = WeightedFan();
  VertexAliasTables alias(g, ThreadPool::Global());
  XorShiftRng rng(5);
  NullMemHook hook;
  const uint64_t draws = 1 << 18;
  std::vector<uint64_t> counts(4, 0);
  for (uint64_t i = 0; i < draws; ++i) {
    ++counts[alias.SampleNeighbor(g, 0, rng, hook)];
  }
  std::vector<uint64_t> observed{counts[1], counts[2], counts[3]};
  std::vector<double> expected{draws * 0.1, draws * 0.3, draws * 0.6};
  EXPECT_TRUE(ChiSquareTestPasses(observed, expected));
}

// Rebuilds each edge's probability from the alias tables: slot i of a
// degree-d list yields edge i with probability prob[i] / d and edge alias[i]
// with (1 - prob[i]) / d. Every edge of every vertex must come out at
// w / sum(w), up to the float rounding of the stored prob[] entries.
void ExpectAliasTablesMatchWeights(const CsrGraph& g) {
  VertexAliasTables tables(g, ThreadPool::Global());
  auto prob = tables.prob();
  auto alias = tables.alias();
  const double kTol = 4 * std::numeric_limits<float>::epsilon();
  std::vector<double> rebuilt;
  for (Vid v = 0; v < g.num_vertices(); ++v) {
    const Eid base = g.edge_begin(v);
    const Degree deg = g.degree(v);
    rebuilt.assign(deg, 0.0);
    for (Degree i = 0; i < deg; ++i) {
      ASSERT_LT(alias[base + i], deg) << "vertex " << v << " slot " << i;
      rebuilt[i] += prob[base + i] / static_cast<double>(deg);
      rebuilt[alias[base + i]] +=
          (1.0 - prob[base + i]) / static_cast<double>(deg);
    }
    auto weights = g.neighbor_weights(v);
    double total = 0;
    for (float w : weights) {
      total += w;
    }
    for (Degree i = 0; i < deg; ++i) {
      ASSERT_NEAR(rebuilt[i], weights[i] / total, kTol)
          << "vertex " << v << " edge " << i << " of " << deg;
    }
  }
}

TEST(VertexAliasTest, ExactEdgeProbabilities) {
  // Hand-built lists: degree 1 (always its one edge), a 100:1:1:1 fan and
  // a 1:2:3:4 fan.
  GraphBuilder b(6);
  b.AddEdge(0, 1, 100.0f);
  b.AddEdge(0, 2, 1.0f);
  b.AddEdge(0, 3, 1.0f);
  b.AddEdge(0, 4, 1.0f);
  b.AddEdge(1, 0, 7.0f);
  for (Vid v = 2; v < 6; ++v) {
    b.AddEdge(5, v - 2, static_cast<float>(v - 1));
  }
  for (Vid v = 2; v < 5; ++v) {
    b.AddEdge(v, 5, 3.0f);
  }
  CsrGraph hand = b.Build();
  ASSERT_TRUE(hand.weighted());
  ASSERT_EQ(hand.degree(1), 1u);
  ExpectAliasTablesMatchWeights(hand);

  // Every vertex of a random-weight power-law graph, hubs and degree-1
  // vertices alike (a mean degree of 4 leaves the Zipf tail at degree 1).
  PowerLawConfig config;
  config.degrees.num_vertices = 20000;
  config.degrees.avg_degree = 4;
  config.random_weights = true;
  CsrGraph g = GeneratePowerLawGraph(config);
  ASSERT_TRUE(g.weighted());
  Vid degree_one = 0;
  for (Vid v = 0; v < g.num_vertices(); ++v) {
    degree_one += g.degree(v) == 1;
  }
  ASSERT_GT(degree_one, 0u);
  ExpectAliasTablesMatchWeights(g);
}

TEST(VertexAliasTest, TablesIndependentOfPoolSize) {
  // Degree-sorted, so the hubs sit at the front where vertex-count chunks
  // would pile up; the edge-balanced ranges must not change a single entry.
  PowerLawConfig config;
  config.degrees.num_vertices = 20000;
  config.degrees.avg_degree = 12;
  config.random_weights = true;
  CsrGraph g = GeneratePowerLawGraph(config);
  ASSERT_TRUE(g.weighted());
  ThreadPool serial(1);
  VertexAliasTables want(g, serial);
  for (uint32_t threads : {3u, 8u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    ThreadPool pool(threads);
    VertexAliasTables got(g, pool);
    EXPECT_TRUE(std::ranges::equal(got.prob(), want.prob()));
    EXPECT_TRUE(std::ranges::equal(got.alias(), want.alias()));
  }
}

TEST(VertexAliasTest, RequiresWeightedGraph) {
  CsrGraph g = SmallGraph();
  EXPECT_DEATH(VertexAliasTables tables(g, ThreadPool::Global()), "weighted");
}

class WeightedWalkTest : public ::testing::TestWithParam<SamplePolicy> {};

TEST_P(WeightedWalkTest, FlashMobTransitionsFollowWeights) {
  // All walkers on the fan hub; one step must distribute 1:3:6 under both PS
  // (weighted refill) and DS (alias draw) policies.
  CsrGraph g = DegreeSort(WeightedFan()).graph;
  Vid hub = 0;  // highest degree after sorting
  ASSERT_EQ(g.degree(hub), 3u);

  FlashMobEngine engine(g);
  engine.SetPlan(PartitionPlan::BuildUniform(g, 1, GetParam()));
  WalkSpec spec;
  spec.steps = 1;
  spec.num_walkers = 1 << 17;
  spec.use_edge_weights = true;
  spec.seed = 3;
  WalkResult result = engine.Run(spec);

  std::vector<uint64_t> counts(4, 0);
  uint64_t from_hub = 0;
  for (Wid w = 0; w < result.paths.num_walkers(); ++w) {
    if (result.paths.At(w, 0) == hub) {
      ++from_hub;
      ++counts[result.paths.At(w, 1)];
    }
  }
  ASSERT_GT(from_hub, 10000u);
  // Map hub's neighbors back to weights via neighbor_weights order.
  auto nbrs = g.neighbors(hub);
  auto wts = g.neighbor_weights(hub);
  double total_w = 0;
  for (float w : wts) {
    total_w += w;
  }
  std::vector<uint64_t> observed;
  std::vector<double> expected;
  for (size_t i = 0; i < nbrs.size(); ++i) {
    observed.push_back(counts[nbrs[i]]);
    expected.push_back(wts[i] / total_w * static_cast<double>(from_hub));
  }
  EXPECT_TRUE(ChiSquareTestPasses(observed, expected));
}

INSTANTIATE_TEST_SUITE_P(Policies, WeightedWalkTest,
                         ::testing::Values(SamplePolicy::kPS, SamplePolicy::kDS));

TEST(WeightedWalkTest, FlashMobMatchesKnightKingWeighted) {
  // A weighted skewed graph: both engines must converge to the same weighted
  // stationary behaviour.
  GraphBuilder b(200);
  XorShiftRng wrng(9);
  for (Vid u = 0; u < 200; ++u) {
    for (int k = 0; k < 6; ++k) {
      Vid v = static_cast<Vid>(wrng.NextBounded(200));
      if (v != u) {
        b.AddEdge(u, v, 0.5f + static_cast<float>(wrng.NextBounded(8)));
      }
    }
  }
  CsrGraph g = DegreeSort(b.Build()).graph;
  WalkSpec spec;
  spec.steps = 12;
  spec.num_walkers = 60000;
  spec.use_edge_weights = true;
  spec.keep_paths = false;

  FlashMobEngine fmob(g);
  auto fm_counts = fmob.Run(spec).visit_counts;
  KnightKingEngine knk(g);
  auto knk_counts = knk.Run(spec).visit_counts;

  uint64_t fm_total = 0, knk_total = 0;
  for (Vid v = 0; v < g.num_vertices(); ++v) {
    fm_total += fm_counts[v];
    knk_total += knk_counts[v];
  }
  for (Vid v = 0; v < 50; ++v) {
    double a = static_cast<double>(fm_counts[v]) / fm_total;
    double b2 = static_cast<double>(knk_counts[v]) / knk_total;
    ASSERT_NEAR(a, b2, 0.15 * std::max(a, b2) + 1e-4) << v;
  }
}

TEST(WeightedWalkTest, RejectsUnweightedGraph) {
  CsrGraph g = SmallSortedGraph();
  FlashMobEngine engine(g);
  WalkSpec spec;
  spec.use_edge_weights = true;
  spec.num_walkers = 10;
  spec.steps = 1;
  EXPECT_DEATH(engine.Run(spec), "weighted");
}

TEST(WeightedWalkTest, WeightedVsUniformDiffer) {
  // Sanity: with extreme weights the walk must visibly depart from uniform.
  CsrGraph g = DegreeSort(WeightedFan()).graph;
  FlashMobEngine engine(g);
  WalkSpec spec;
  spec.steps = 1;
  spec.num_walkers = 1 << 16;
  spec.seed = 7;
  auto uniform = engine.Run(spec);
  spec.use_edge_weights = true;
  auto weighted = engine.Run(spec);
  // Under weights, neighbor with w=6 receives ~6x the w=1 neighbor's traffic.
  auto count_to = [&](const WalkResult& r, Vid target) {
    uint64_t c = 0;
    for (Wid w = 0; w < r.paths.num_walkers(); ++w) {
      c += r.paths.At(w, 0) == 0 && r.paths.At(w, 1) == target;
    }
    return c;
  };
  auto nbrs = g.neighbors(0);
  auto wts = g.neighbor_weights(0);
  // Find the heaviest and lightest neighbors.
  size_t heavy = 0, light = 0;
  for (size_t i = 0; i < wts.size(); ++i) {
    if (wts[i] > wts[heavy]) heavy = i;
    if (wts[i] < wts[light]) light = i;
  }
  double weighted_ratio =
      static_cast<double>(count_to(weighted, nbrs[heavy]) + 1) /
      static_cast<double>(count_to(weighted, nbrs[light]) + 1);
  double uniform_ratio =
      static_cast<double>(count_to(uniform, nbrs[heavy]) + 1) /
      static_cast<double>(count_to(uniform, nbrs[light]) + 1);
  EXPECT_GT(weighted_ratio, 4.0);
  EXPECT_LT(uniform_ratio, 1.5);
}

}  // namespace
}  // namespace fm
