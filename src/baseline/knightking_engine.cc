#include "src/baseline/knightking_engine.h"

#include <algorithm>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/baseline/common.h"
#include "src/core/interleave.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace fm {
namespace {

inline Vid VertexOfEdgePos(std::span<const Eid> offsets, Eid pos) {
  auto it = std::upper_bound(offsets.begin(), offsets.end(), pos);
  return static_cast<Vid>((it - offsets.begin()) - 1);
}

// Ring ops mirroring BaselineStepFirstOrder + the stop draw, draw-for-draw:
// offsets -> (alias row when weighted) -> edge cell. Walkers map ring index i
// to global index base + i, and each seeds its own stream from the *global*
// index, so results are independent of both interleave depth and chunking.
// Dead walkers complete at Init without consuming draws, exactly like the
// sequential loop's skip.
template <typename Rng, typename Hook>
struct BaselineFirstOrderRing {
  const CsrGraph& graph;
  const VertexAliasTables* alias;
  const Vid* cur;
  Vid* next;
  double stop_probability;
  uint64_t step_seed;
  Wid base;
  Hook& hook;
  InterleaveStats stats;

  BaselineFirstOrderRing(const CsrGraph& graph_in,
                         const VertexAliasTables* alias_in, const Vid* cur_in,
                         Vid* next_in, double stop_probability_in,
                         uint64_t step_seed_in, Wid base_in, Hook& hook_in)
      : graph(graph_in),
        alias(alias_in),
        cur(cur_in),
        next(next_in),
        stop_probability(stop_probability_in),
        step_seed(step_seed_in),
        base(base_in),
        hook(hook_in) {}

  enum : uint8_t { kStageOffsets, kStageAlias, kStageEdge };
  struct Slot {
    Rng rng{0};  // re-seeded per walker at Init
    Wid j = 0;
    Vid v = 0;
    Eid begin = 0;
    Eid pick = 0;
    Degree deg = 0;
    uint8_t stage = kStageOffsets;
  };
  Slot slots[kMaxInterleaveDepth];

  FM_HOT_PATH bool Finish(Slot& s, Vid nxt) {
    if (stop_probability > 0 && s.rng.NextDouble() < stop_probability) {
      nxt = kInvalidVid;
    }
    next[s.j] = nxt;
    hook.Store(next + s.j, sizeof(Vid));
    return false;
  }

  FM_HOT_PATH bool Init(uint32_t slot, Wid i) {
    Slot& s = slots[slot];
    s.j = base + i;
    s.v = cur[s.j];
    if (s.v == kInvalidVid) {
      next[s.j] = kInvalidVid;
      return false;
    }
    hook.Load(cur + s.j, sizeof(Vid));
    s.rng.Seed(WalkerSeed(step_seed, s.j));
    PrefetchRead(graph.offsets().data() + s.v);
    ++stats.offsets;
    s.stage = kStageOffsets;
    return true;
  }

  FM_HOT_PATH bool Advance(uint32_t slot) {
    Slot& s = slots[slot];
    const Vid* edges = graph.edges().data();
    switch (s.stage) {
      case kStageOffsets: {
        hook.Load(graph.offsets().data() + s.v, 2 * sizeof(Eid));
        s.begin = graph.edge_begin(s.v);
        s.deg = static_cast<Degree>(graph.edge_end(s.v) - s.begin);
        if (s.deg == 0) {
          return Finish(s, s.v);
        }
        if (alias != nullptr) {
          s.pick = alias->PickSlot(s.begin, s.deg, s.rng);
          PrefetchRead(alias->RowAddr(s.pick));
          ++stats.alias;
          s.stage = kStageAlias;
          return true;
        }
        s.pick = s.begin + s.rng.NextBounded(s.deg);
        PrefetchRead(edges + s.pick);
        ++stats.edges;
        s.stage = kStageEdge;
        return true;
      }
      case kStageAlias: {
        Degree idx = alias->ResolveSlot(s.begin, s.pick, s.rng, hook);
        s.pick = s.begin + idx;
        PrefetchRead(edges + s.pick);
        ++stats.edges;
        s.stage = kStageEdge;
        return true;
      }
      default: {
        hook.Load(edges + s.pick, sizeof(Vid));
        return Finish(s, edges[s.pick]);
      }
    }
  }
};

// Ring ops mirroring BaselineStepNode2Vec + the stop draw. The rejection loop
// re-draws a candidate edge per retry with a fresh prefetch, so every retry's
// edge read gets its own ring-lap of distance; the connectivity binary search
// stays inline (data-dependent probes, unprefetchable).
template <typename Rng, typename Hook>
struct BaselineNode2VecRing {
  const CsrGraph& graph;
  const Node2VecParams& params;
  const Vid* cur;
  const Vid* prev;
  Vid* next;
  double stop_probability;
  uint64_t step_seed;
  Wid base;
  double bound;
  Hook& hook;
  InterleaveStats stats;

  BaselineNode2VecRing(const CsrGraph& graph_in,
                       const Node2VecParams& params_in, const Vid* cur_in,
                       const Vid* prev_in, Vid* next_in,
                       double stop_probability_in, uint64_t step_seed_in,
                       Wid base_in, double bound_in, Hook& hook_in)
      : graph(graph_in),
        params(params_in),
        cur(cur_in),
        prev(prev_in),
        next(next_in),
        stop_probability(stop_probability_in),
        step_seed(step_seed_in),
        base(base_in),
        bound(bound_in),
        hook(hook_in) {}

  enum : uint8_t { kStageOffsets, kStageFirstEdge, kStageCandidate };
  struct Slot {
    Rng rng{0};  // re-seeded per walker at Init
    Wid j = 0;
    Vid v = 0;
    Vid pv = 0;
    Eid begin = 0;
    Eid pick = 0;
    Degree deg = 0;
    uint8_t stage = kStageOffsets;
  };
  Slot slots[kMaxInterleaveDepth];

  FM_HOT_PATH bool Finish(Slot& s, Vid nxt) {
    if (stop_probability > 0 && s.rng.NextDouble() < stop_probability) {
      nxt = kInvalidVid;
    }
    next[s.j] = nxt;
    hook.Store(next + s.j, sizeof(Vid));
    return false;
  }

  FM_HOT_PATH bool Init(uint32_t slot, Wid i) {
    Slot& s = slots[slot];
    s.j = base + i;
    s.v = cur[s.j];
    if (s.v == kInvalidVid) {
      next[s.j] = kInvalidVid;
      return false;
    }
    hook.Load(cur + s.j, sizeof(Vid));
    s.pv = prev != nullptr ? prev[s.j] : kInvalidVid;
    s.rng.Seed(WalkerSeed(step_seed, s.j));
    PrefetchRead(graph.offsets().data() + s.v);
    ++stats.offsets;
    s.stage = kStageOffsets;
    return true;
  }

  FM_HOT_PATH bool Advance(uint32_t slot) {
    Slot& s = slots[slot];
    const Vid* edges = graph.edges().data();
    switch (s.stage) {
      case kStageOffsets: {
        hook.Load(graph.offsets().data() + s.v, 2 * sizeof(Eid));
        s.begin = graph.edge_begin(s.v);
        s.deg = static_cast<Degree>(graph.edge_end(s.v) - s.begin);
        if (s.deg == 0) {
          return Finish(s, s.v);
        }
        s.pick = s.begin + s.rng.NextBounded(s.deg);
        PrefetchRead(edges + s.pick);
        ++stats.edges;
        s.stage = s.pv == kInvalidVid ? kStageFirstEdge : kStageCandidate;
        return true;
      }
      case kStageFirstEdge: {
        hook.Load(edges + s.pick, sizeof(Vid));
        return Finish(s, edges[s.pick]);
      }
      default: {
        hook.Load(edges + s.pick, sizeof(Vid));
        Vid candidate = edges[s.pick];
        double w;
        if (candidate == s.pv) {
          // div: node2vec bias weights 1/p and 1/q; runtime parameters, cannot
          // fold to shifts, and they hit only the rejection branch.
          w = 1.0 / params.p;
        } else if (HasEdgeHooked(graph, s.pv, candidate, hook)) {
          w = 1.0;
        } else {
          // div: see the 1/p justification above.
          w = 1.0 / params.q;
        }
        if (s.rng.NextDouble() * bound < w) {
          return Finish(s, candidate);
        }
        s.pick = s.begin + s.rng.NextBounded(s.deg);
        PrefetchRead(edges + s.pick);
        ++stats.edges;
        return true;
      }
    }
  }
};

}  // namespace

KnightKingEngine::KnightKingEngine(const CsrGraph& graph, BaselineOptions options)
    : graph_(graph), options_(options) {
  FM_CHECK(graph.num_vertices() > 0);
  if (options_.pool == nullptr) {
    options_.pool = &ThreadPool::Global();
  }
}

WalkResult KnightKingEngine::Run(const WalkSpec& spec) {
  NullMemHook hook;
  if (options_.use_mersenne) {
    return RunImpl<MersenneRng>(spec, hook, false);
  }
  return RunImpl<XorShiftRng>(spec, hook, false);
}

WalkResult KnightKingEngine::RunInstrumented(const WalkSpec& spec,
                                             CacheHierarchy* sim) {
  CacheSimHook hook(sim);
  if (options_.use_mersenne) {
    return RunImpl<MersenneRng>(spec, hook, true);
  }
  return RunImpl<XorShiftRng>(spec, hook, true);
}

template <typename Rng, typename Hook>
WalkResult KnightKingEngine::RunImpl(const WalkSpec& spec, Hook& hook,
                                     bool single_thread) {
  const Vid n = graph_.num_vertices();
  const Eid m = graph_.num_edges();
  const bool node2vec = spec.algorithm == WalkAlgorithm::kNode2Vec;
  FM_CHECK_MSG(!spec.use_edge_weights || graph_.weighted(),
               "use_edge_weights requires a weighted graph");
  FM_CHECK_MSG(!(spec.use_edge_weights && node2vec),
               "weighted node2vec is not supported");
  Wid walkers = spec.num_walkers != 0 ? spec.num_walkers : n;

  ThreadPool single_pool(1);
  ThreadPool* pool = single_thread ? &single_pool : options_.pool;
  std::unique_ptr<VertexAliasTables> alias_storage;
  if (spec.use_edge_weights) {
    alias_storage = std::make_unique<VertexAliasTables>(graph_, *pool);
  }
  const VertexAliasTables* alias = alias_storage.get();

  // The ring executor only runs on the per-walker-seeded xorshift path, and
  // never under the cache simulator (prefetch hints are not simulated, so the
  // sim must see the sequential access stream).
  constexpr bool kPerWalkerStreams = std::is_same_v<Rng, XorShiftRng>;
  const uint32_t depth =
      (kPerWalkerStreams && !Hook::kEnabled)
          ? std::min(std::max(options_.interleave_depth, 1u),
                     kMaxInterleaveDepth)
          : 1;

  WalkResult result;
  result.stats.walker_density =
      static_cast<double>(walkers) / std::max<double>(1.0, static_cast<double>(m));
  result.stats.episodes = 1;
  result.stats.interleave_depth = depth;
  if (options_.count_visits) {
    result.visit_counts.assign(n, 0);  // fmlint:allow(visit-counts-mut) baseline engine fills its own result
  }

  // Walkers advance in lockstep rounds, each processed one by one within its
  // thread's contiguous range ("all (active) walkers take turns to each sample and
  // follow one edge", §1). Paths are rows just like FlashMob's output format.
  PathSet paths(walkers, spec.steps);
  pool->ParallelChunks(walkers, [&](uint64_t begin, uint64_t end, uint32_t) {
    Rng rng(DeriveSeed(spec.seed, 0xBA5E ^ begin));
    Vid* row = paths.Row(0).data();
    for (Wid j = begin; j < end; ++j) {
      row[j] = (m > 0) ? VertexOfEdgePos(graph_.offsets(), rng.NextBounded(m))
                       : static_cast<Vid>(rng.NextBounded(n));
    }
  });

  std::vector<InterleaveStats> prefetch_shards(pool->thread_count());
  Timer walk_timer;
  for (uint32_t step = 0; step < spec.steps; ++step) {
    const Vid* cur = paths.Row(step).data();
    const Vid* prev = step > 0 ? paths.Row(step - 1).data() : nullptr;
    Vid* next = paths.Row(step + 1).data();
    const uint64_t step_seed =
        DeriveSeed(spec.seed, 0x55EFULL ^ (static_cast<uint64_t>(step) << 32));
    pool->ParallelChunks(
        walkers, [&](uint64_t begin, uint64_t end, uint32_t worker) {
          if constexpr (kPerWalkerStreams) {
            // One RNG stream per (step, global walker): walks do not depend on
            // the chunking or on the ring depth.
            if (node2vec) {
              // div: reciprocal bound hoisted once per chunk, as in
              // BaselineStepNode2Vec.
              double bound =
                  std::max({1.0, 1.0 / spec.node2vec.p, 1.0 / spec.node2vec.q});
              BaselineNode2VecRing<Rng, Hook> ring{
                  graph_, spec.node2vec,         cur,
                  prev,   next,                  spec.stop_probability,
                  step_seed, static_cast<Wid>(begin), bound,
                  hook};
              RunInterleavedRing(depth, static_cast<Wid>(end - begin), ring);
              prefetch_shards[worker] += ring.stats;
            } else {
              BaselineFirstOrderRing<Rng, Hook> ring{
                  graph_,    alias,
                  cur,       next,
                  spec.stop_probability, step_seed,
                  static_cast<Wid>(begin), hook};
              RunInterleavedRing(depth, static_cast<Wid>(end - begin), ring);
              prefetch_shards[worker] += ring.stats;
            }
            return;
          }
          Rng rng(DeriveSeed(
              spec.seed,
              0x55EFULL ^ (static_cast<uint64_t>(step) << 32) ^ begin));
          for (Wid j = begin; j < end; ++j) {
            Vid v = cur[j];
            if (v == kInvalidVid) {
              next[j] = kInvalidVid;
              continue;
            }
            hook.Load(cur + j, sizeof(Vid));
            Vid nxt;
            if (node2vec) {
              Vid pv = prev != nullptr ? prev[j] : kInvalidVid;
              nxt = BaselineStepNode2Vec(graph_, v, pv, spec.node2vec, rng, hook);
            } else {
              nxt = BaselineStepFirstOrder(graph_, v, alias, rng, hook);
            }
            if (spec.stop_probability > 0 &&
                rng.NextDouble() < spec.stop_probability) {
              nxt = kInvalidVid;
            }
            next[j] = nxt;
            hook.Store(next + j, sizeof(Vid));
          }
        });
    result.stats.total_steps += walkers;
  }
  result.stats.times.sample_s = walk_timer.Elapsed();
  for (const InterleaveStats& shard : prefetch_shards) {
    result.stats.prefetch += shard;
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
