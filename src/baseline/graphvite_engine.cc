#include "src/baseline/graphvite_engine.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "src/core/sample_stage.h"
#include "src/core/walker_state.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace fm {

GraphViteEngine::GraphViteEngine(const CsrGraph& graph, BaselineOptions options)
    : graph_(graph), options_(options) {
  FM_CHECK(graph.num_vertices() > 0);
  if (options_.pool == nullptr) {
    options_.pool = &ThreadPool::Global();
  }
}

WalkResult GraphViteEngine::Run(const WalkSpec& spec) {
  NullMemHook hook;
  if (options_.use_mersenne) {
    return RunImpl<MersenneRng>(spec, hook, false);
  }
  return RunImpl<XorShiftRng>(spec, hook, false);
}

WalkResult GraphViteEngine::RunInstrumented(const WalkSpec& spec,
                                            CacheHierarchy* sim) {
  CacheSimHook hook(sim);
  if (options_.use_mersenne) {
    return RunImpl<MersenneRng>(spec, hook, true);
  }
  return RunImpl<XorShiftRng>(spec, hook, true);
}

template <typename Rng, typename Hook>
WalkResult GraphViteEngine::RunImpl(const WalkSpec& spec, Hook& hook,
                                    bool single_thread) {
  const Status spec_status = CheckWalkSpec(spec, graph_);
  FM_CHECK_MSG(spec_status.ok(), spec_status.message());
  FM_CHECK_MSG(spec.algorithm != WalkAlgorithm::kMetropolisHastings,
               "Metropolis-Hastings is not supported by the GraphVite baseline");
  const Vid n = graph_.num_vertices();
  const Eid m = graph_.num_edges();
  const bool node2vec = spec.algorithm == WalkAlgorithm::kNode2Vec;
  Wid walkers = spec.num_walkers != 0 ? spec.num_walkers : n;

  ThreadPool single_pool(1);
  ThreadPool* pool = single_thread ? &single_pool : options_.pool;
  std::unique_ptr<VertexAliasTables> alias_storage;
  if (spec.use_edge_weights) {
    alias_storage = std::make_unique<VertexAliasTables>(graph_, *pool);
  }
  const VertexAliasTables* alias = alias_storage.get();

  WalkResult result;
  result.stats.walker_density =
      static_cast<double>(walkers) / std::max<double>(1.0, static_cast<double>(m));
  result.stats.episodes = 1;

  // Row 0 is placed as FlashMob places it.
  PathSet paths(walkers, spec.steps);
  Timer other_timer;
  PlaceWalkers(graph_, spec, pool, /*episode=*/0, /*base_walker=*/0,
               paths.Row(0));
  result.stats.times.other_s = other_timer.Elapsed();

  // Live walker-steps per worker (a walker stops stepping once dead).
  std::vector<uint64_t> live_shards(pool->thread_count(), 0);
  const Node2VecThresholds thresholds(spec.node2vec);
  Timer walk_timer;
  // One walker's whole path at a time: every transition depends on the previous
  // one — a graph-wide pointer chase.
  ForEachWalkerRange(pool, walkers, kBaselineRange, [&](Wid begin, Wid end,
                                                        uint32_t worker) {
    Rng rng(DeriveSeed(spec.seed, 0x6E17ULL ^ begin));
    uint64_t live = 0;
    for (Wid j = begin; j < end; ++j) {
      Vid v = paths.At(j, 0);
      Vid prev = kInvalidVid;
      for (uint32_t step = 0; step < spec.steps; ++step) {
        Vid nxt = kInvalidVid;
        if (v != kInvalidVid) {
          ++live;
          nxt = node2vec ? Node2VecStep(graph_, v, prev, thresholds, rng, hook)
                         : DirectStep(graph_, v, alias, rng, hook);
          if (spec.stop_probability > 0 &&
              rng.NextDouble() < spec.stop_probability) {
            nxt = kInvalidVid;
          }
        }
        paths.At(j, step + 1) = nxt;
        hook.Store(&paths.At(j, step + 1), sizeof(Vid));
        prev = v;
        v = nxt;
      }
    }
    live_shards[worker] += live;
  });
  result.stats.times.sample_s = walk_timer.Elapsed();
  for (uint64_t live : live_shards) {
    result.stats.total_steps += live;
  }

  if (options_.count_visits) {
    result.visit_counts = paths.VisitCounts(n);  // fmlint:allow(visit-counts-mut) baseline engine fills its own result
  }
  if (spec.keep_paths) {
    result.paths = std::move(paths);
  }
  return result;
}

}  // namespace fm
