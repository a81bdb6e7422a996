#include "src/core/walker_state.h"

#include <algorithm>
#include <cstring>

#include "src/cachesim/mem_hook.h"
#include "src/core/walk_observer.h"
#include "src/graph/csr_graph.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace fm {

Wid EpisodeCapacity(const WalkSpec& spec, uint64_t dram_budget_bytes,
                    Vid num_vertices) {
  Wid total = spec.num_walkers != 0 ? spec.num_walkers : num_vertices;
  // Walker-state bytes per walker: all W_i rows when keeping paths, else the
  // rotating prev/cur/next triple; plus the SW scratch (and its aux for
  // node2vec).
  uint64_t per_walker =
      spec.keep_paths ? (static_cast<uint64_t>(spec.steps) + 3) * sizeof(Vid)
                      : 6 * sizeof(Vid);
  if (spec.algorithm == WalkAlgorithm::kNode2Vec) {
    per_walker += 2 * sizeof(Vid);
  }
  Wid cap = std::max<Wid>(dram_budget_bytes / per_walker, 1024);
  return std::min(total, cap);
}

WalkerState::WalkerState(const CsrGraph& graph, const WalkSpec& spec,
                         Wid walkers)
    : graph_(graph),
      spec_(spec),
      walkers_(walkers),
      width_(walkers),
      node2vec_(spec.algorithm == WalkAlgorithm::kNode2Vec),
      identity_free_(!spec.track_identity) {
  if (spec_.keep_paths) {
    paths_ = PathSet(walkers_, spec_.steps);
    w_cur_ = paths_.Row(0).data();
  } else {
    rot_a_.resize(walkers_);
    rot_b_.resize(walkers_);
    if (node2vec_) {
      if (identity_free_) {
        // rot_b carries predecessors alongside rot_a; first step has none.
        std::fill(rot_b_.begin(), rot_b_.end(), kInvalidVid);
      } else {
        rot_c_.resize(walkers_);
      }
    }
    w_cur_ = rot_a_.data();
    free_buf_ = rot_b_.data();
    if (node2vec_ && !identity_free_) {
      free_buf2_ = rot_c_.data();
    }
  }
  sw_.resize(walkers_);
  if (node2vec_) {
    sw_prev_.resize(walkers_);
  }
}

const Vid* WalkerState::scatter_aux() const {
  if (!node2vec_) {
    return nullptr;
  }
  return identity_free_ ? rot_b_.data() : w_prev_;
}

void WalkerState::AfterScatter(const Vid* aux) {
  if (node2vec_ && aux == nullptr) {
    // First step of an identity-tracked node2vec episode: no predecessors yet;
    // the kernel treats kInvalidVid as "take a uniform first-order step".
    std::fill(sw_prev_.begin(), sw_prev_.end(), kInvalidVid);
  }
}

Vid* WalkerState::GatherTarget(uint32_t step) {
  return spec_.keep_paths ? paths_.Row(step + 1).data() : free_buf_;
}

void WalkerState::AdvanceTracked(uint32_t step) {
  Vid* w_next = GatherTarget(step);
  // Rotate rows: prev <- cur <- next; the oldest buffer becomes free.
  if (spec_.keep_paths) {
    w_prev_ = w_cur_;
    w_cur_ = w_next;
  } else if (node2vec_) {
    Vid* old_prev = w_prev_;
    w_prev_ = w_cur_;
    w_cur_ = w_next;
    free_buf_ = (old_prev != nullptr) ? old_prev : free_buf2_;
  } else {
    free_buf_ = w_cur_;
    w_cur_ = w_next;
  }
}

void WalkerState::AdvanceIdentityFree(Wid live_prefix) {
  // No reverse shuffle ran: the sampled SW (and, for node2vec, the
  // kernel-updated predecessor stream) simply becomes the next walker array.
  FM_DCHECK_LE(live_prefix, width_);
  std::swap(rot_a_, sw_);
  w_cur_ = rot_a_.data();
  if (node2vec_) {
    std::swap(rot_b_, sw_prev_);
  }
  width_ = live_prefix;
}

namespace {

// Moves row[from, from + count) down to row[to, ...), to <= from.
template <typename Hook>
void ShiftLeft(Vid* row, Wid from, Wid to, Wid count, Hook& hook) {
  if (to == from || count == 0) {
    return;
  }
  std::memmove(row + to, row + from, count * sizeof(Vid));
  if constexpr (Hook::kEnabled) {
    for (Wid j = 0; j < count; ++j) {
      hook.Load(row + from + j, sizeof(Vid));
      hook.Store(row + to + j, sizeof(Vid));
    }
  }
}

}  // namespace

template <typename Hook>
void WalkerState::Squeeze(ThreadPool* pool, Hook& hook) {
  FM_DCHECK(!spec_.keep_paths && !identity_free_);
  Vid* cur = w_cur_;
  Vid* prev = node2vec_ ? w_prev_ : nullptr;
  const Wid ranges = (width_ + kSqueezeRange - 1) / kSqueezeRange;
  std::vector<Wid> kept(ranges);
  // Pack each range's survivors at its front, in order. Every slot is
  // written (out <= j), and only a live walker advances `out`, so the loop
  // has no data-dependent branch.
  auto pack = [&](Wid begin, Wid end, uint32_t) {
    Wid out = begin;
    for (Wid j = begin; j < end; ++j) {
      hook.Load(cur + j, sizeof(Vid));
      const Vid v = cur[j];
      cur[out] = v;
      hook.Store(cur + out, sizeof(Vid));
      if (prev != nullptr) {
        hook.Load(prev + j, sizeof(Vid));
        prev[out] = prev[j];
        hook.Store(prev + out, sizeof(Vid));
      }
      out += v != kInvalidVid ? 1 : 0;
    }
    kept[begin / kSqueezeRange] = out - begin;
  };
  ForEachWalkerRange(pool, width_, kSqueezeRange, pack);
  // Close the gaps, in range order: a block lands on slots whose walkers
  // have already moved further left.
  Wid live = 0;
  for (Wid r = 0; r < ranges; ++r) {
    ShiftLeft(cur, r * kSqueezeRange, live, kept[r], hook);
    if (prev != nullptr) {
      ShiftLeft(prev, r * kSqueezeRange, live, kept[r], hook);
    }
    live += kept[r];
  }
  width_ = live;
}

template void WalkerState::Squeeze(ThreadPool*, NullMemHook&);
template void WalkerState::Squeeze(ThreadPool*, CacheSimHook&);

void PlaceWalkers(const CsrGraph& graph, const WalkSpec& spec,
                  ThreadPool* pool, uint64_t episode, Wid base_walker,
                  std::span<Vid> row,
                  std::span<WalkObserver* const> observers) {
  const Vid n = graph.num_vertices();
  const Eid m = graph.num_edges();
  const Wid walkers = row.size();
  const std::vector<Vid>& starts = spec.start_vertices;
  const double edges_per_walker =
      static_cast<double>(m) / static_cast<double>(walkers);
  const Eid* offsets = graph.offsets().data();
  // Fixed-size blocks, because the RNG stream is seeded by the block's first
  // walker index: pool-sized chunks would re-slice the streams with the
  // thread count and change every start vertex, breaking the
  // same-seed-same-walks determinism contract (tests/determinism_test.cc).
  constexpr Wid kPlaceBlock = 1 << 16;
  ForEachWalkerRange(pool, walkers, kPlaceBlock, [&](Wid begin, Wid end,
                                                     uint32_t) {
    XorShiftRng rng(DeriveSeed(spec.seed, 0x1A17ULL ^ (episode << 20) ^ begin));
    if (!starts.empty()) {
      // Seeded placement: walker j (global index, consistent across
      // episodes) starts at start_vertices[j % size()].
      for (Wid j = begin; j < end; ++j) {
        row[j] = starts[(base_walker + j) % starts.size()];
      }
    } else if (m == 0) {
      for (Wid j = begin; j < end; ++j) {
        row[j] = static_cast<Vid>(rng.NextBounded(n));
      }
    } else {
      // Degree-proportional ("uniformly sampling among all edges", §3).
      // Walker j draws a jittered edge position within its own 1/w slice of
      // the edge array; positions are monotone in j, so one sequential sweep
      // of the CSR offsets resolves every owner — O(1) per walker, no binary
      // searches. The aggregate marginal distribution over edges is exactly
      // uniform.
      Eid pos0 =
          static_cast<Eid>(static_cast<double>(begin) * edges_per_walker);
      Vid v = graph.VertexOfEdge(std::min<Eid>(pos0, m - 1));
      for (Wid j = begin; j < end; ++j) {
        Eid pos = static_cast<Eid>(
            (static_cast<double>(j) + rng.NextDouble()) * edges_per_walker);
        pos = std::min<Eid>(pos, m - 1);
        while (offsets[v + 1] <= pos) {
          ++v;
        }
        row[j] = v;
      }
    }
    std::span<const Vid> chunk = row.subspan(begin, end - begin);
    for (WalkObserver* observer : observers) {
      observer->OnPlacementChunk(begin, chunk);
    }
  });
}

PathSet WalkerState::TakePaths() {
  FM_DCHECK(spec_.keep_paths);
  w_cur_ = nullptr;
  w_prev_ = nullptr;
  PathSet out = std::move(paths_);
  paths_ = PathSet();
  return out;
}

}  // namespace fm
