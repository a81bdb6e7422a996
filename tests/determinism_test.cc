// Cross-thread-count determinism: the engine's per-VP RNG streams are derived
// from (seed, episode, step, vp) — never from thread identity — so the same
// seed must produce bit-identical walks no matter how many workers execute
// them. This pins down the property that makes perf runs comparable across
// machines and makes any data race that corrupts walker state visible as a
// hash mismatch (the TSan suite's semantic complement).
//
// The partition plan itself depends on PartitionPlan::Config::threads_sharing_l3
// (the engine defaults it to the pool's thread count), and a different plan
// legitimately reorders RNG streams. The test therefore pins the config —
// matching how a reproducible production run would pin its plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/core/engine.h"
#include "src/gen/uniform_degree.h"
#include "src/graph/degree_sort.h"
#include "src/graph/graph_builder.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace fm {
namespace {

// FNV-1a over every stored walker position, row-major: any reordering or
// corruption of any path changes the hash.
uint64_t PathSetHash(const PathSet& paths) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  mix(paths.num_walkers());
  mix(paths.steps());
  for (uint32_t step = 0; step <= paths.steps(); ++step) {
    for (Wid w = 0; w < paths.num_walkers(); ++w) {
      mix(paths.At(w, step));
    }
  }
  return h;
}

// Skewed-degree deterministic graph, large enough for several VPs.
CsrGraph BuildGraph() {
  const Vid n = 2048;
  GraphBuilder b(n);
  XorShiftRng rng(99);
  for (Vid v = 0; v < n; ++v) {
    Degree deg = 1 + static_cast<Degree>(rng.NextBounded(1 + v % 16));
    for (Degree i = 0; i < deg; ++i) {
      Vid t = static_cast<Vid>(rng.NextBounded(n));
      if (t == v) {
        t = (t + 1) % n;
      }
      b.AddEdge(v, t);
    }
  }
  return DegreeSort(b.Build()).graph;
}

struct RunDigest {
  uint64_t path_hash = 0;
  std::vector<uint64_t> counts;
};

RunDigest RunWith(const CsrGraph& g, uint32_t threads, WalkAlgorithm algorithm,
                  double stop_probability) {
  ThreadPool pool(threads);
  EngineOptions options;
  options.pool = &pool;
  // Pin the plan config: threads_sharing_l3 feeds the planner's cache-level
  // classification, and the engine would otherwise default it to the pool
  // size, changing the plan (and hence the RNG stream layout) across runs.
  options.plan.threads_sharing_l3 = 4;
  WalkSpec spec;
  spec.algorithm = algorithm;
  spec.steps = 12;
  spec.num_walkers = 4 * g.num_vertices();
  spec.seed = 7;
  spec.stop_probability = stop_probability;
  spec.keep_paths = true;
  if (algorithm == WalkAlgorithm::kNode2Vec) {
    spec.node2vec = {0.5, 2.0};
  }
  FlashMobEngine engine(g, options);
  WalkResult result = engine.Run(spec);
  RunDigest digest;
  digest.path_hash = PathSetHash(result.paths);
  digest.counts = std::move(result.visit_counts);
  return digest;
}

class DeterminismTest
    : public ::testing::TestWithParam<std::tuple<WalkAlgorithm, double>> {};

TEST_P(DeterminismTest, SameSeedSameWalksAcrossThreadCounts) {
  auto [algorithm, stop] = GetParam();
  CsrGraph g = BuildGraph();
  uint32_t hw = std::max(2u, std::thread::hardware_concurrency());
  std::vector<uint32_t> thread_counts{1, 4, hw};
  RunDigest reference = RunWith(g, thread_counts[0], algorithm, stop);
  ASSERT_NE(reference.path_hash, 0u);
  for (size_t i = 1; i < thread_counts.size(); ++i) {
    RunDigest digest = RunWith(g, thread_counts[i], algorithm, stop);
    EXPECT_EQ(digest.path_hash, reference.path_hash)
        << "PathSet diverged at threads=" << thread_counts[i];
    EXPECT_EQ(digest.counts, reference.counts)
        << "visit counts diverged at threads=" << thread_counts[i];
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsAndStops, DeterminismTest,
    ::testing::Combine(::testing::Values(WalkAlgorithm::kDeepWalk,
                                         WalkAlgorithm::kNode2Vec),
                       ::testing::Values(0.0, 0.15)),
    [](const ::testing::TestParamInfo<DeterminismTest::ParamType>& info) {
      const char* algo = std::get<0>(info.param) == WalkAlgorithm::kDeepWalk
                             ? "deepwalk"
                             : "node2vec";
      return std::string(algo) +
             (std::get<1>(info.param) == 0.0 ? "_stop0" : "_stop15");
    });

// FNV-1a over the per-vertex visit counts.
uint64_t VisitHash(const std::vector<uint64_t>& counts) {
  uint64_t h = 1469598103934665603ULL;
  for (uint64_t c : counts) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// BuildGraph's shape with a positive float weight on every edge.
CsrGraph BuildWeightedGraph() {
  const Vid n = 2048;
  GraphBuilder b(n);
  XorShiftRng rng(123);
  for (Vid v = 0; v < n; ++v) {
    Degree deg = 1 + static_cast<Degree>(rng.NextBounded(1 + v % 16));
    for (Degree i = 0; i < deg; ++i) {
      Vid t = static_cast<Vid>(rng.NextBounded(n));
      if (t == v) {
        t = (t + 1) % n;
      }
      b.AddEdge(v, t, 0.25f + static_cast<float>(rng.NextBounded(16)));
    }
  }
  return DegreeSort(b.Build()).graph;
}

struct GoldenCase {
  const char* name;
  WalkAlgorithm algorithm;
  double stop_probability;
  bool weighted;
  uint64_t dram_budget_bytes;  // 0 = one episode
  uint64_t path_hash;
  uint64_t visit_hash;
};

// Walk hashes pinned across commits: a change that only restructures the
// shuffle or the sample stage must leave every walk bit-identical, so these
// constants may change only with a deliberate change to the walk itself.
// Engine defaults otherwise; the plan config is pinned as in RunWith.
// 180000 bytes hold 3000 walkers of 12-step paths, so the multi-episode case
// runs 8192 walkers in three episodes.
TEST(DeterminismTest, GoldenWalkHashesAcrossCommits) {
  const GoldenCase cases[] = {
      {"deepwalk_stop0", WalkAlgorithm::kDeepWalk, 0.0, false, 0,
       0x329b4172b78d6be0ULL, 0xd2eec4a0d7fcef7bULL},
      {"deepwalk_stop15", WalkAlgorithm::kDeepWalk, 0.15, false, 0,
       0x3fee471cfa00111eULL, 0xd8eacfad514249efULL},
      {"node2vec_stop0", WalkAlgorithm::kNode2Vec, 0.0, false, 0,
       0xbc326036324ad295ULL, 0xa7f6534fb1fc1b5bULL},
      {"node2vec_stop15", WalkAlgorithm::kNode2Vec, 0.15, false, 0,
       0x33684ea67157dce9ULL, 0x391b34894b39657aULL},
      {"metropolis_stop0", WalkAlgorithm::kMetropolisHastings, 0.0, false, 0,
       0x3a56a96884faf749ULL, 0x6d29ef657c0ee1ebULL},
      {"metropolis_stop15", WalkAlgorithm::kMetropolisHastings, 0.15, false, 0,
       0xb42fbd631846b87cULL, 0x79700fd5c809f8efULL},
      {"weighted_deepwalk", WalkAlgorithm::kDeepWalk, 0.0, true, 0,
       0xf2ff7d229513c4b7ULL, 0x9344421c83244647ULL},
      {"multi_episode_deepwalk_stop15", WalkAlgorithm::kDeepWalk, 0.15, false,
       180000, 0x4e0be1a7dbb718fbULL, 0x53d85358877a24c1ULL},
  };
  const CsrGraph plain = BuildGraph();
  const CsrGraph weighted = BuildWeightedGraph();
  ASSERT_TRUE(weighted.weighted());
  for (const GoldenCase& c : cases) {
    const CsrGraph& g = c.weighted ? weighted : plain;
    ThreadPool pool(3);
    EngineOptions options;
    options.pool = &pool;
    options.plan.threads_sharing_l3 = 4;
    options.dram_budget_bytes = c.dram_budget_bytes;
    WalkSpec spec;
    spec.algorithm = c.algorithm;
    spec.steps = 12;
    spec.num_walkers = 4 * g.num_vertices();
    spec.seed = 11;
    spec.stop_probability = c.stop_probability;
    spec.keep_paths = true;
    spec.use_edge_weights = c.weighted;
    if (c.algorithm == WalkAlgorithm::kNode2Vec) {
      spec.node2vec = {0.5, 2.0};
    }
    FlashMobEngine engine(g, options);
    WalkResult result = engine.Run(spec);
    if (c.dram_budget_bytes != 0) {
      EXPECT_EQ(result.stats.episodes, 3u) << c.name;
    }
    EXPECT_EQ(PathSetHash(result.paths), c.path_hash)
        << c.name << ": path hash 0x" << std::hex << PathSetHash(result.paths);
    EXPECT_EQ(VisitHash(result.visit_counts), c.visit_hash)
        << c.name << ": visit hash 0x" << std::hex
        << VisitHash(result.visit_counts);
  }
}

TEST(DeterminismTest, RepeatedRunsWithSamePoolAreIdentical) {
  // Same engine, same spec, run twice: episode state (presample cursors, RNG
  // derivation) must reset completely between runs.
  CsrGraph g = BuildGraph();
  ThreadPool pool(3);
  EngineOptions options;
  options.pool = &pool;
  options.plan.threads_sharing_l3 = 4;
  WalkSpec spec;
  spec.steps = 10;
  spec.num_walkers = 2 * g.num_vertices();
  spec.seed = 5;
  FlashMobEngine engine(g, options);
  uint64_t first = PathSetHash(engine.Run(spec).paths);
  uint64_t second = PathSetHash(engine.Run(spec).paths);
  EXPECT_EQ(first, second);
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  // Sanity check that the hash is actually sensitive to walk content.
  CsrGraph g = BuildGraph();
  ThreadPool pool(2);
  EngineOptions options;
  options.pool = &pool;
  options.plan.threads_sharing_l3 = 4;
  WalkSpec spec;
  spec.steps = 10;
  spec.num_walkers = 2 * g.num_vertices();
  FlashMobEngine engine(g, options);
  spec.seed = 1;
  uint64_t a = PathSetHash(engine.Run(spec).paths);
  spec.seed = 2;
  uint64_t b = PathSetHash(engine.Run(spec).paths);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace fm
