#include "src/core/shuffle.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "src/util/logging.h"
#include "src/util/sync.h"
#include "src/util/timer.h"

namespace fm {
namespace {

// Chunk boundaries: chunk c of n over k chunks.
inline Wid ChunkBegin(Wid n, uint32_t chunks, uint32_t c) {
  // div: one quotient + remainder per chunk boundary (O(threads) per pass, not
  // per walker); `chunks` is the runtime thread count, so no shift folding.
  return n / chunks * c + std::min<Wid>(c, n % chunks);
}

// Destination bin of one walker value: its vertex partition, or the trailing
// dead bin for terminated walkers.
FM_HOT_PATH inline uint32_t BinOfWalker(const PartitionPlan* plan,
                                        uint32_t num_vps, Vid value) {
  return value == kInvalidVid ? num_vps : plan->VpOf(value);
}

// The five scan kernels and the copy-through below issue one hook access per
// W read, counter bump, SW (or intermediate) write and aux element — the
// cache-simulated access stream of the real pass.

// Pass-1 kernel: per-chunk destination counts (sequential read of W; counter
// arrays stay cache-resident — the L2-derived fan-out constraint of §4.3).
template <typename Hook>
FM_HOT_PATH void CountChunkScan(const PartitionPlan* plan, uint32_t num_vps,
                                const Vid* w, Wid begin, Wid end, Wid* counts,
                                Hook& hook) {
  for (Wid j = begin; j < end; ++j) {
    hook.Load(w + j, sizeof(Vid));
    uint32_t bin = BinOfWalker(plan, num_vps, w[j]);
    ++counts[bin];
    hook.Store(counts + bin, sizeof(Wid));
  }
}

// Pass-2 kernel (one-level path): counting scatter of one chunk of W into SW.
template <typename Hook>
FM_HOT_PATH void ScatterChunkScan(const PartitionPlan* plan, uint32_t num_vps,
                                  const Vid* w, const Vid* aux, Wid begin,
                                  Wid end, Wid* offs, const Wid* vp_offsets,
                                  Vid* sw, Vid* sw_aux, Hook& hook) {
  for (Wid j = begin; j < end; ++j) {
    hook.Load(w + j, sizeof(Vid));
    uint32_t bin = BinOfWalker(plan, num_vps, w[j]);
    Wid p = offs[bin]++;
    hook.Store(offs + bin, sizeof(Wid));
    FM_DCHECK_LT(p, vp_offsets[bin + 1]);
    sw[p] = w[j];
    hook.Store(sw + p, sizeof(Vid));
    if (aux != nullptr) {
      hook.Load(aux + j, sizeof(Vid));
      sw_aux[p] = aux[j];
      hook.Store(sw_aux + p, sizeof(Vid));
    }
  }
}

// Outer-pass kernel (two-level path): scatter one chunk of W by outer bin into
// the intermediate array.
template <typename Hook>
FM_HOT_PATH void OuterScatterChunkScan(const PartitionPlan* plan,
                                       uint32_t num_bins, const Vid* w,
                                       const Vid* aux, Wid begin, Wid end,
                                       Wid* cursor, Wid scattered_n, Vid* inter,
                                       Vid* inter_aux, Hook& hook) {
  for (Wid j = begin; j < end; ++j) {
    hook.Load(w + j, sizeof(Vid));
    Vid v = w[j];
    uint32_t b = (v == kInvalidVid) ? num_bins : plan->OuterBinOf(v);
    Wid p = cursor[b]++;
    hook.Store(cursor + b, sizeof(Wid));
    FM_DCHECK_LT(p, scattered_n);
    inter[p] = v;
    hook.Store(inter + p, sizeof(Vid));
    if (aux != nullptr) {
      hook.Load(aux + j, sizeof(Vid));
      inter_aux[p] = aux[j];
      hook.Store(inter_aux + p, sizeof(Vid));
    }
  }
}

// Inner-pass kernel (two-level path): stable in-bin counting scatter by VP.
// Scanning the intermediate chunk in order preserves (chunk, scan) order per
// VP, matching the one-level layout.
template <typename Hook>
FM_HOT_PATH void InnerScatterGroupScan(const PartitionPlan* plan,
                                       uint32_t vp_base, uint32_t vp_count,
                                       Wid begin, Wid end, Wid* offs,
                                       const Wid* vp_offsets, const Vid* inter,
                                       const Vid* inter_aux, Vid* sw,
                                       Vid* sw_aux, Hook& hook) {
  for (Wid j = begin; j < end; ++j) {
    hook.Load(inter + j, sizeof(Vid));
    FM_DCHECK_GE(plan->VpOf(inter[j]), vp_base);
    uint32_t vp = plan->VpOf(inter[j]) - vp_base;
    FM_DCHECK_LT(vp, vp_count);
    Wid p = offs[vp]++;
    hook.Store(offs + vp, sizeof(Wid));
    FM_DCHECK_LT(p, vp_offsets[vp_base + vp + 1]);
    sw[p] = inter[j];
    hook.Store(sw + p, sizeof(Vid));
    if (inter_aux != nullptr) {
      hook.Load(inter_aux + j, sizeof(Vid));
      sw_aux[p] = inter_aux[j];
      hook.Store(sw_aux + p, sizeof(Vid));
    }
  }
}

// Copy-through (two-level path): a single-VP outer bin, or the dead bin, is
// already in final order in the intermediate array.
template <typename Hook>
FM_HOT_PATH void CopyThrough(Wid begin, Wid end, const Vid* inter,
                             const Vid* inter_aux, Vid* sw, Vid* sw_aux,
                             Hook& hook) {
  if (end == begin) {
    return;
  }
  std::memcpy(sw + begin, inter + begin, (end - begin) * sizeof(Vid));
  if (inter_aux != nullptr) {
    std::memcpy(sw_aux + begin, inter_aux + begin, (end - begin) * sizeof(Vid));
  }
  if constexpr (Hook::kEnabled) {
    for (Wid j = begin; j < end; ++j) {
      hook.Load(inter + j, sizeof(Vid));
      hook.Store(sw + j, sizeof(Vid));
      if (inter_aux != nullptr) {
        hook.Load(inter_aux + j, sizeof(Vid));
        hook.Store(sw_aux + j, sizeof(Vid));
      }
    }
  }
}

// Gather kernel: replay one chunk's counting offsets, pulling each walker's
// post-step value out of SW back into walker order. `consumed` is the debug
// bijectivity witness (null in release builds).
template <typename Hook>
FM_HOT_PATH void GatherChunkScan(const PartitionPlan* plan, uint32_t num_vps,
                                 const Vid* w_prev, Wid begin, Wid end,
                                 Wid* offs, Wid n, const Vid* sw,
                                 const Vid* sw_aux, Vid* w_next, Vid* aux_next,
                                 [[maybe_unused]] uint8_t* consumed,
                                 Hook& hook) {
  for (Wid j = begin; j < end; ++j) {
    hook.Load(w_prev + j, sizeof(Vid));
    uint32_t bin = BinOfWalker(plan, num_vps, w_prev[j]);
    Wid p = offs[bin]++;
    hook.Store(offs + bin, sizeof(Wid));
    FM_DCHECK_LT(p, n);
#ifndef NDEBUG
    FM_DCHECK_MSG(consumed[p] == 0, "SW slot " << p << " replayed twice");
    consumed[p] = 1;
#endif
    hook.Load(sw + p, sizeof(Vid));
    w_next[j] = sw[p];
    hook.Store(w_next + j, sizeof(Vid));
    if (sw_aux != nullptr) {
      hook.Load(sw_aux + p, sizeof(Vid));
      aux_next[j] = sw_aux[p];
      hook.Store(aux_next + j, sizeof(Vid));
    }
  }
}

}  // namespace

Shuffler::Shuffler(const PartitionPlan* plan, ThreadPool* pool)
    : plan_(plan), pool_(pool), num_vps_(plan->num_vps()) {
  num_chunks_ = pool_->thread_count();
  starts_.resize(static_cast<size_t>(num_chunks_) * (num_vps_ + 1));
  vp_offsets_.resize(num_vps_ + 2);
}

template <typename Hook>
void Shuffler::CountAndPrefix(const Vid* w, Wid n, Hook& hook) {
  size_t row = num_vps_ + 1;
  std::fill(starts_.begin(), starts_.end(), 0);
  pool_->ParallelFor(num_chunks_, [&](uint64_t c, uint32_t) {
    Wid begin = ChunkBegin(n, num_chunks_, static_cast<uint32_t>(c));
    Wid end = ChunkBegin(n, num_chunks_, static_cast<uint32_t>(c) + 1);
    CountChunkScan(plan_, num_vps_, w, begin, end, &starts_[c * row], hook);
  });
  // Prefix over (vp-major, chunk-minor): the SW order within a partition is (chunk,
  // scan), which Gather replays deterministically.
  Wid acc = 0;
  for (uint32_t vp = 0; vp <= num_vps_; ++vp) {
    vp_offsets_[vp] = acc;
    for (uint32_t c = 0; c < num_chunks_; ++c) {
      Wid count = starts_[c * row + vp];
      starts_[c * row + vp] = acc;
      acc += count;
    }
  }
  vp_offsets_[num_vps_ + 1] = acc;
  FM_CHECK(acc == n);
  // Offset monotonicity: the prefix walk must leave both tables non-decreasing,
  // and every (chunk, vp) start inside its vp's chunk — the invariant that makes
  // the scatter/gather replay a bijection.
  for (uint32_t vp = 0; vp <= num_vps_; ++vp) {
    FM_DCHECK_LE(vp_offsets_[vp], vp_offsets_[vp + 1]);
    for (uint32_t c = 0; c < num_chunks_; ++c) {
      FM_DCHECK_GE(starts_[c * row + vp], vp_offsets_[vp]);
      FM_DCHECK_LE(starts_[c * row + vp], vp_offsets_[vp + 1]);
      if (c + 1 < num_chunks_) {
        FM_DCHECK_LE(starts_[c * row + vp], starts_[(c + 1) * row + vp]);
      }
    }
  }
  scattered_n_ = n;
}

template <typename Hook>
void Shuffler::Scatter(const Vid* w, const Vid* aux, Wid n, Vid* sw,
                       Vid* sw_aux, Hook& hook) {
  Timer timer;
  CountAndPrefix(w, n, hook);
  scatter_stats_.pass1_s = timer.Lap();
  if (plan_->has_internal_shuffle()) {
    ScatterTwoLevel(w, aux, n, sw, sw_aux, hook);
  } else {
    ScatterOneLevel(w, aux, n, sw, sw_aux, hook);
  }
  scatter_stats_.pass2_s = timer.Lap();
}

template <typename Hook>
Status Shuffler::Gather(const Vid* w_prev, Wid n, const Vid* sw, Vid* w_next,
                        const Vid* sw_aux, Vid* aux_next, Hook& hook) {
  if (n != scattered_n_) {
    std::ostringstream msg;
    msg << "Gather must replay the exact Scatter input: got " << n
        << " walkers, scattered " << scattered_n_;
    return Status::FailedPrecondition(msg.str());
  }
  Timer timer;
  size_t row = num_vps_ + 1;
#ifndef NDEBUG
  // Bijectivity witness: every SW slot must be consumed exactly once. Distinct
  // slots mean the writes below are race-free iff the replay is a permutation; a
  // corrupted replay trips the check (or TSan, which reports it first).
  std::vector<uint8_t> consumed(n, 0);
  uint8_t* consumed_ptr = consumed.data();
#else
  uint8_t* consumed_ptr = nullptr;
#endif
  pool_->ParallelFor(num_chunks_, [&](uint64_t c, uint32_t) {
    Wid begin = ChunkBegin(n, num_chunks_, static_cast<uint32_t>(c));
    Wid end = ChunkBegin(n, num_chunks_, static_cast<uint32_t>(c) + 1);
    std::vector<Wid> offs(starts_.begin() + c * row,
                          starts_.begin() + (c + 1) * row);
    GatherChunkScan(plan_, num_vps_, w_prev, begin, end, offs.data(), n, sw,
                    sw_aux, w_next, aux_next, consumed_ptr, hook);
  });
  gather_stats_.pass1_s = 0;
  gather_stats_.pass2_s = timer.Lap();
  return Status::Ok();
}

void Shuffler::ScatterTwoLevelForTest(const Vid* w, const Vid* aux, Wid n,
                                      Vid* sw, Vid* sw_aux) {
  NullMemHook hook;
  CountAndPrefix(w, n, hook);
  ScatterTwoLevel(w, aux, n, sw, sw_aux, hook);
}

template <typename Hook>
void Shuffler::ScatterOneLevel(const Vid* w, const Vid* aux, Wid n, Vid* sw,
                               Vid* sw_aux, Hook& hook) {
  size_t row = num_vps_ + 1;
  pool_->ParallelFor(num_chunks_, [&](uint64_t c, uint32_t) {
    Wid begin = ChunkBegin(n, num_chunks_, static_cast<uint32_t>(c));
    Wid end = ChunkBegin(n, num_chunks_, static_cast<uint32_t>(c) + 1);
    // Working copy so starts_ stays intact for Gather's replay.
    std::vector<Wid> offs(starts_.begin() + c * row,
                          starts_.begin() + (c + 1) * row);
    ScatterChunkScan(plan_, num_vps_, w, aux, begin, end, offs.data(),
                     vp_offsets_.data(), sw, sw_aux, hook);
  });
}

template <typename Hook>
void Shuffler::ScatterTwoLevel(const Vid* w, const Vid* aux, Wid n, Vid* sw,
                               Vid* sw_aux, Hook& hook) {
  // Outer pass: scatter by outer bin into the intermediate array. Outer-bin chunk
  // starts derive from VP-granularity starts because each bin covers a contiguous
  // VP range.
  inter_.resize(n);
  if (aux != nullptr) {
    inter_aux_.resize(n);
  }
  Vid* inter_aux = aux != nullptr ? inter_aux_.data() : nullptr;
  size_t row = num_vps_ + 1;
  uint32_t num_bins = plan_->num_outer_bins();

  // bin_first_vp[b] = plan VP index starting bin b; dead bin maps past the end.
  std::vector<uint32_t> bin_first_vp(num_bins + 1);
  for (const PartitionGroup& g : plan_->groups()) {
    if (g.internal_shuffle) {
      bin_first_vp[g.outer_bin_base] = g.vp_base;
    } else {
      for (uint32_t i = 0; i < g.vp_count; ++i) {
        bin_first_vp[g.outer_bin_base + i] = g.vp_base + i;
      }
    }
  }
  bin_first_vp[num_bins] = num_vps_;  // dead bin

  pool_->ParallelFor(num_chunks_, [&](uint64_t c, uint32_t) {
    Wid begin = ChunkBegin(n, num_chunks_, static_cast<uint32_t>(c));
    Wid end = ChunkBegin(n, num_chunks_, static_cast<uint32_t>(c) + 1);
    // Per-(chunk, bin) start = bin base + walkers of earlier chunks in this bin.
    // Earlier chunks' contribution per bin = sum over member VPs of
    // (starts_[c][vp] - vp_offsets_[vp]), since starts_[c][vp] already accumulates
    // earlier chunks at VP granularity.
    std::vector<Wid> cursor(num_bins + 1);
    for (uint32_t b = 0; b <= num_bins; ++b) {
      uint32_t vp_lo = bin_first_vp[b];
      uint32_t vp_hi = (b == num_bins) ? num_vps_ + 1 : bin_first_vp[b + 1];
      Wid bin_base = vp_offsets_[vp_lo];
      Wid earlier = 0;
      for (uint32_t vp = vp_lo; vp < vp_hi; ++vp) {
        earlier += starts_[c * row + vp] - vp_offsets_[vp];
      }
      cursor[b] = bin_base + earlier;
    }
    OuterScatterChunkScan(plan_, num_bins, w, aux, begin, end, cursor.data(),
                          scattered_n_, inter_.data(), inter_aux, hook);
  });

  // Inner pass: internal-shuffle bins get a counting scatter from the intermediate
  // chunk into SW; single-VP bins copy through. Parallel over groups.
  const auto& groups = plan_->groups();
  pool_->ParallelFor(groups.size() + 1, [&](uint64_t gi, uint32_t) {
    if (gi == groups.size()) {
      CopyThrough(vp_offsets_[num_vps_], vp_offsets_[num_vps_ + 1],
                  inter_.data(), inter_aux, sw, sw_aux, hook);
      return;
    }
    const PartitionGroup& g = groups[gi];
    Wid begin = vp_offsets_[g.vp_base];
    Wid end = vp_offsets_[g.vp_base + g.vp_count];
    if (!g.internal_shuffle) {
      CopyThrough(begin, end, inter_.data(), inter_aux, sw, sw_aux, hook);
      return;
    }
    if (end == begin) {
      return;
    }
    std::vector<Wid> offs(g.vp_count);
    for (uint32_t i = 0; i < g.vp_count; ++i) {
      offs[i] = vp_offsets_[g.vp_base + i];
    }
    InnerScatterGroupScan(plan_, g.vp_base, g.vp_count, begin, end,
                          offs.data(), vp_offsets_.data(), inter_.data(),
                          inter_aux, sw, sw_aux, hook);
  });
}

template void Shuffler::Scatter(const Vid*, const Vid*, Wid, Vid*, Vid*,
                                NullMemHook&);
template void Shuffler::Scatter(const Vid*, const Vid*, Wid, Vid*, Vid*,
                                CacheSimHook&);
template Status Shuffler::Gather(const Vid*, Wid, const Vid*, Vid*,
                                 const Vid*, Vid*, NullMemHook&);
template Status Shuffler::Gather(const Vid*, Wid, const Vid*, Vid*,
                                 const Vid*, Vid*, CacheSimHook&);

}  // namespace fm
