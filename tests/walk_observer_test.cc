// Streaming-observer equivalence: the engine's visit counts must equal two
// oracles bit-for-bit — a serial tally of the placement and sample streams,
// and PathSet::VisitCounts of the same keep_paths run — across every
// algorithm, identity mode, termination setting, episode split and pool size.
#include "src/core/walk_observer.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/gen/powerlaw_graph.h"
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

struct Combo {
  WalkAlgorithm algorithm;
  bool track_identity;
  double stop_probability;
};

std::vector<Combo> AllCombos() {
  std::vector<Combo> combos;
  for (WalkAlgorithm algorithm :
       {WalkAlgorithm::kDeepWalk, WalkAlgorithm::kNode2Vec,
        WalkAlgorithm::kMetropolisHastings}) {
    for (bool track_identity : {true, false}) {
      for (double stop : {0.0, 0.15}) {
        combos.push_back({algorithm, track_identity, stop});
      }
    }
  }
  return combos;
}

WalkSpec ComboSpec(const Combo& combo, Wid walkers, uint32_t steps,
                   uint64_t seed) {
  WalkSpec spec;
  spec.algorithm = combo.algorithm;
  spec.node2vec = {2.0, 0.5};
  spec.track_identity = combo.track_identity;
  spec.keep_paths = false;
  spec.stop_probability = combo.stop_probability;
  spec.num_walkers = walkers;
  spec.steps = steps;
  spec.seed = seed;
  return spec;
}

// The engine's counts must equal both oracles in every mode: the streamed
// tally riding the same run, and (tracked modes, which can keep paths) the
// row scan of that run's PathSet.
TEST(WalkObserverTest, CountsMatchStreamedAndRowScanOracles) {
  CsrGraph g = SkewedGraph(2000);
  for (const Combo& combo : AllCombos()) {
    FlashMobEngine engine(g);
    WalkSpec spec = ComboSpec(combo, 6000, 9, 5);
    spec.keep_paths = combo.track_identity;
    StreamedVisitOracle oracle(g.num_vertices());
    WalkResult result = engine.Run(spec, {&oracle});
    ASSERT_EQ(result.visit_counts, oracle.counts())
        << "algorithm " << static_cast<int>(combo.algorithm) << " tracked "
        << combo.track_identity << " stop " << combo.stop_probability;
    if (spec.keep_paths) {
      ASSERT_EQ(result.visit_counts, result.paths.VisitCounts(g.num_vertices()))
          << "algorithm " << static_cast<int>(combo.algorithm) << " stop "
          << combo.stop_probability;
    }
  }
}

// The streamed counts must be bit-identical to the pre-refactor serial
// accumulation. PathSet::VisitCounts IS that serial loop (a full scan of the
// materialized rows), and the engine's counts for the same seed are identical
// with keep_paths on or off — so counts from a counts-only run must equal the
// row scan of a path-keeping run exactly.
TEST(WalkObserverTest, CountsMatchSerialRowScan) {
  CsrGraph g = SkewedGraph(2500);
  for (WalkAlgorithm algorithm :
       {WalkAlgorithm::kDeepWalk, WalkAlgorithm::kNode2Vec,
        WalkAlgorithm::kMetropolisHastings}) {
    for (double stop : {0.0, 0.15}) {
      Combo combo{algorithm, /*track_identity=*/true, stop};
      WalkSpec spec = ComboSpec(combo, 5000, 11, 9);

      FlashMobEngine counting_engine(g);
      WalkResult counted = counting_engine.Run(spec);

      spec.keep_paths = true;
      FlashMobEngine path_engine(g);
      WalkResult pathed = path_engine.Run(spec);

      std::vector<uint64_t> serial = pathed.paths.VisitCounts(g.num_vertices());
      ASSERT_EQ(counted.visit_counts, serial)
          << "algorithm " << static_cast<int>(algorithm) << " stop " << stop;
      ASSERT_EQ(pathed.visit_counts, serial);
    }
  }
}

// Observers must see every episode: force a multi-episode run and check the
// streamed tally still agrees with the engine outputs exactly.
TEST(WalkObserverTest, ObserversSpanEpisodes) {
  CsrGraph g = SkewedGraph(1200);
  EngineOptions options;
  options.dram_budget_bytes = 1 << 20;  // forces several episodes
  WalkSpec spec;
  spec.num_walkers = 100000;
  spec.steps = 5;
  spec.seed = 23;

  FlashMobEngine engine(g, options);
  ASSERT_LT(engine.EpisodeWalkers(spec), spec.num_walkers);
  StreamedVisitOracle oracle(g.num_vertices());
  WalkResult result = engine.Run(spec, {&oracle});
  EXPECT_GT(result.stats.episodes, 1u);
  EXPECT_EQ(result.visit_counts, oracle.counts());
  EXPECT_EQ(result.visit_counts, result.paths.VisitCounts(g.num_vertices()));
}

// Observer streams work under the instrumented (cache-simulated) path too.
TEST(WalkObserverTest, InstrumentedRunFeedsObservers) {
  CsrGraph g = SkewedGraph(1000);
  WalkSpec spec;
  spec.num_walkers = 1500;
  spec.steps = 4;
  spec.seed = 31;
  FlashMobEngine engine(g);
  CacheHierarchy sim;
  StreamedVisitOracle oracle(g.num_vertices());
  WalkResult result = engine.RunInstrumented(spec, &sim, {&oracle});
  EXPECT_GT(sim.counters().accesses, 0u);
  EXPECT_EQ(result.visit_counts, oracle.counts());
  EXPECT_EQ(result.visit_counts, result.paths.VisitCounts(g.num_vertices()));
}

// The engine counts each walker at the vertex it holds before a step, inside
// the VP task that owns the vertex, and each episode's final positions in one
// more scatter. This matrix crosses everything that shapes a VP chunk or an
// episode: pool sizes, a two-level plan, steps 0/1/7 (0: only the final pass
// counts), stop 0/0.15 (dead walkers sit in the dead bin), every algorithm
// tracked and identity-free (there the final row is the swapped SW), weighted
// walks, seeded and degree-proportional starts, one episode or at least four,
// and keep_paths on and off. In every case the counts must equal the streamed
// oracle, the row scan when paths are kept, and the 1-thread run's counts.
TEST(WalkObserverTest, CountsMatchOraclesAcrossRunShapes) {
  PowerLawConfig config;
  config.degrees.num_vertices = 60000;
  config.degrees.avg_degree = 8;
  config.degrees.alpha = 0.8;
  config.degrees.max_degree = 60000 / 8;
  config.random_weights = true;
  CsrGraph g = GeneratePowerLawGraph(config);
  const Vid n = g.num_vertices();
  std::vector<Vid> starts;
  for (Vid i = 0; i < 97; ++i) {
    starts.push_back(static_cast<Vid>((i * 7919u) % n));
  }
  struct Mode {
    const char* name;
    WalkAlgorithm algorithm;
    bool weighted;
    bool tracked;
  };
  const Mode modes[] = {
      {"deepwalk", WalkAlgorithm::kDeepWalk, false, true},
      {"deepwalk-free", WalkAlgorithm::kDeepWalk, false, false},
      {"node2vec", WalkAlgorithm::kNode2Vec, false, true},
      {"node2vec-free", WalkAlgorithm::kNode2Vec, false, false},
      {"mh", WalkAlgorithm::kMetropolisHastings, false, true},
      {"mh-free", WalkAlgorithm::kMetropolisHastings, false, false},
      {"weighted", WalkAlgorithm::kDeepWalk, true, true},
      {"weighted-free", WalkAlgorithm::kDeepWalk, true, false},
  };
  // 16 KB holds at most 1365 walkers of any mode below, so 6000 walkers take
  // at least 4 episodes; 0 keeps the default budget (one episode).
  const uint64_t kSmallBudget = 16 << 10;
  const Wid kWalkers = 6000;
  std::map<std::string, std::vector<uint64_t>> one_thread;
  for (uint32_t threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    for (uint64_t budget : {uint64_t{0}, kSmallBudget}) {
      EngineOptions options;
      options.pool = &pool;
      options.plan.num_groups = 32;
      options.plan.max_partitions = 36;
      options.plan.threads_sharing_l3 = 4;  // the same plan on every pool
      options.dram_budget_bytes = budget;
      FlashMobEngine engine(g, options);
      for (const Mode& mode : modes) {
        for (uint32_t steps : {0u, 1u, 7u}) {
          for (double stop : {0.0, 0.15}) {
            for (bool seeded : {false, true}) {
              std::vector<uint64_t> counts_only;
              for (bool keep_paths : {false, true}) {
                if (keep_paths && !mode.tracked) {
                  continue;
                }
                WalkSpec spec;
                spec.algorithm = mode.algorithm;
                spec.node2vec = {2.0, 0.5};
                spec.use_edge_weights = mode.weighted;
                spec.track_identity = mode.tracked;
                spec.keep_paths = keep_paths;
                spec.stop_probability = stop;
                spec.num_walkers = kWalkers;
                spec.steps = steps;
                spec.seed = 41;
                if (seeded) {
                  spec.start_vertices = starts;
                }
                const std::string key =
                    std::string(mode.name) + " budget " +
                    std::to_string(budget) + " steps " +
                    std::to_string(steps) + " stop " + std::to_string(stop) +
                    " seeded " + std::to_string(seeded) + " keep_paths " +
                    std::to_string(keep_paths);
                StreamedVisitOracle oracle(n);
                WalkResult result = engine.Run(spec, {&oracle});
                ASSERT_TRUE(engine.plan().has_internal_shuffle()) << key;
                if (budget == 0) {
                  ASSERT_EQ(result.stats.episodes, 1u) << key;
                } else {
                  ASSERT_GE(result.stats.episodes, 4u) << key;
                }
                ASSERT_EQ(result.visit_counts, oracle.counts())
                    << key << " threads " << threads;
                if (keep_paths) {
                  ASSERT_EQ(result.visit_counts, result.paths.VisitCounts(n))
                      << key << " threads " << threads;
                  // keep_paths changes the episode split; only a one-episode
                  // pair walks the same walks.
                  if (result.stats.episodes == 1) {
                    ASSERT_EQ(result.visit_counts, counts_only)
                        << key << " threads " << threads;
                  }
                } else {
                  counts_only = result.visit_counts;
                }
                auto [it, first] = one_thread.emplace(key, result.visit_counts);
                ASSERT_TRUE(first || result.visit_counts == it->second)
                    << key << " threads " << threads;
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace fm
