#include "src/baseline/knightking_engine.h"

#include <algorithm>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/baseline/interleave.h"
#include "src/core/sample_stage.h"
#include "src/core/walker_state.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace fm {
namespace {

// Ring ops for one chunk of walkers, draw-for-draw the sequential step
// (DirectStep / Node2VecStep) plus the stop draw: offsets -> (alias row when
// weighted) -> candidate edge cell. A node2vec walker with a predecessor runs
// the shared accept test on each candidate and re-draws on rejection, with a
// fresh prefetch, so every retry's edge read gets its own ring lap of
// distance; the connectivity binary search stays inline (data-dependent
// probes, unprefetchable). A first-order walker is a node2vec walker with no
// predecessor: its first candidate is taken. Walkers map ring index i to
// global index base + i, and each seeds its own stream from the *global*
// index, so results are independent of both interleave depth and ranges.
// Dead walkers complete at Init without consuming draws, exactly like the
// sequential loop's skip.
template <typename Rng, typename Hook>
struct BaselineRing {
  const CsrGraph& graph;
  const VertexAliasTables* alias;  // weighted first-order walks only
  const Node2VecThresholds thresholds;
  const Vid* cur;
  const Vid* prev;  // predecessor row; null when walkers have none
  Vid* next;
  double stop_probability;
  uint64_t step_seed;
  Wid base;
  Hook& hook;
  InterleaveStats stats;
  uint64_t live = 0;  // walkers stepped (not dead at Init)

  BaselineRing(const CsrGraph& graph_in, const VertexAliasTables* alias_in,
               const Node2VecParams& params_in, const Vid* cur_in,
               const Vid* prev_in, Vid* next_in, double stop_probability_in,
               uint64_t step_seed_in, Wid base_in, Hook& hook_in)
      : graph(graph_in),
        alias(alias_in),
        thresholds(params_in),
        cur(cur_in),
        prev(prev_in),
        next(next_in),
        stop_probability(stop_probability_in),
        step_seed(step_seed_in),
        base(base_in),
        hook(hook_in) {}

  enum : uint8_t { kStageOffsets, kStageAlias, kStageCandidate };
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

  // Draws a candidate edge and prefetches its cell.
  FM_HOT_PATH bool Propose(Slot& s) {
    s.pick = s.begin + s.rng.NextBounded(s.deg);
    PrefetchRead(graph.edges().data() + s.pick);
    ++stats.edges;
    s.stage = kStageCandidate;
    return true;
  }

  FM_HOT_PATH bool Init(uint32_t slot, Wid i) {
    Slot& s = slots[slot];
    s.j = base + i;
    s.v = cur[s.j];
    if (s.v == kInvalidVid) {
      next[s.j] = kInvalidVid;
      return false;
    }
    ++live;
    hook.Load(cur + s.j, sizeof(Vid));
    s.pv = prev != nullptr ? prev[s.j] : kInvalidVid;
    s.rng.Seed(WalkerSeed(step_seed, s.j));
    PrefetchRead(graph.offsets().data() + s.v);
    ++stats.offsets;
    s.stage = kStageOffsets;
    return true;
  }

  // Forced inline: the candidate stage inlines the accept test's binary
  // search, and GCC then leaves Advance out of line, which costs a call per
  // stage — about 1 ns/step at ring depths 4-16 in fig1c.
  [[gnu::always_inline]] FM_HOT_PATH bool Advance(uint32_t slot) {
    Slot& s = slots[slot];
    switch (s.stage) {
      case kStageOffsets: {
        hook.Load(graph.offsets().data() + s.v, 2 * sizeof(Eid));
        s.begin = graph.edge_begin(s.v);
        s.deg = static_cast<Degree>(graph.edge_end(s.v) - s.begin);
        if (s.deg == 0) {
          return Finish(s, s.v);
        }
        if (alias == nullptr) {
          return Propose(s);
        }
        s.pick = alias->PickSlot(s.begin, s.deg, s.rng);
        PrefetchRead(alias->RowAddr(s.pick));
        ++stats.alias;
        s.stage = kStageAlias;
        return true;
      }
      case kStageAlias: {
        s.pick = s.begin + alias->ResolveSlot(s.begin, s.pick, s.rng, hook);
        PrefetchRead(graph.edges().data() + s.pick);
        ++stats.edges;
        s.stage = kStageCandidate;
        return true;
      }
      default: {
        hook.Load(graph.edges().data() + s.pick, sizeof(Vid));
        const Vid candidate = graph.edges()[s.pick];
        if (s.pv == kInvalidVid ||
            Node2VecAccepts(graph, s.pv, candidate, thresholds, s.rng,
                            hook)) {
          return Finish(s, candidate);
        }
        return Propose(s);
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
  const Status spec_status = CheckWalkSpec(spec, graph_);
  FM_CHECK_MSG(spec_status.ok(), spec_status.message());
  FM_CHECK_MSG(spec.algorithm != WalkAlgorithm::kMetropolisHastings,
               "Metropolis-Hastings is not supported by the KnightKing baseline");
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
  last_depth_ = depth;

  // Walkers advance in lockstep rounds, each processed one by one within its
  // range ("all (active) walkers take turns to each sample and follow one
  // edge", §1). Paths are rows just like FlashMob's output format, and row 0
  // is placed as FlashMob places it.
  PathSet paths(walkers, spec.steps);
  Timer other_timer;
  PlaceWalkers(graph_, spec, pool, /*episode=*/0, /*base_walker=*/0,
               paths.Row(0));
  result.stats.times.other_s = other_timer.Elapsed();

  // Per-worker tallies, folded after the walk: prefetches issued and live
  // walker-steps (dead walkers are skipped, not stepped).
  std::vector<InterleaveStats> prefetch_shards(pool->thread_count());
  std::vector<uint64_t> live_shards(pool->thread_count(), 0);
  const Node2VecThresholds thresholds(spec.node2vec);
  Timer walk_timer;
  for (uint32_t step = 0; step < spec.steps; ++step) {
    const Vid* cur = paths.Row(step).data();
    const Vid* prev =
        node2vec && step > 0 ? paths.Row(step - 1).data() : nullptr;
    Vid* next = paths.Row(step + 1).data();
    const uint64_t step_seed =
        DeriveSeed(spec.seed, 0x55EFULL ^ (static_cast<uint64_t>(step) << 32));
    ForEachWalkerRange(
        pool, walkers, kBaselineRange,
        [&](Wid begin, Wid end, uint32_t worker) {
          if constexpr (kPerWalkerStreams) {
            // One RNG stream per (step, walker): walks depend on neither the
            // ranges nor the ring depth.
            BaselineRing<Rng, Hook> ring(graph_, alias, spec.node2vec, cur,
                                         prev, next, spec.stop_probability,
                                         step_seed, begin, hook);
            RunInterleavedRing(depth, end - begin, ring);
            prefetch_shards[worker] += ring.stats;
            live_shards[worker] += ring.live;
            return;
          }
          Rng rng(DeriveSeed(
              spec.seed,
              0x55EFULL ^ (static_cast<uint64_t>(step) << 32) ^ begin));
          uint64_t live = 0;
          for (Wid j = begin; j < end; ++j) {
            Vid v = cur[j];
            if (v == kInvalidVid) {
              next[j] = kInvalidVid;
              continue;
            }
            ++live;
            hook.Load(cur + j, sizeof(Vid));
            Vid nxt = node2vec
                          ? Node2VecStep(graph_, v,
                                         prev != nullptr ? prev[j] : kInvalidVid,
                                         thresholds, rng, hook)
                          : DirectStep(graph_, v, alias, rng, hook);
            if (spec.stop_probability > 0 &&
                rng.NextDouble() < spec.stop_probability) {
              nxt = kInvalidVid;
            }
            next[j] = nxt;
            hook.Store(next + j, sizeof(Vid));
          }
          live_shards[worker] += live;
        });
  }
  result.stats.times.sample_s = walk_timer.Elapsed();
  last_prefetch_ = {};
  for (uint32_t worker = 0; worker < pool->thread_count(); ++worker) {
    last_prefetch_ += prefetch_shards[worker];
    result.stats.total_steps += live_shards[worker];
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
