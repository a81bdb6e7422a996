#include "src/core/shuffle.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "src/util/logging.h"
#include "src/util/sync.h"
#include "src/util/timer.h"
#include "src/util/trace.h"

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

// Pass-1 kernel: per-chunk destination counts (sequential read of W; counter
// arrays stay cache-resident — the L2-derived fan-out constraint of §4.3).
FM_HOT_PATH void CountChunkScan(const PartitionPlan* plan, uint32_t num_vps,
                                const Vid* w, Wid begin, Wid end, Wid* counts) {
  for (Wid j = begin; j < end; ++j) {
    ++counts[BinOfWalker(plan, num_vps, w[j])];
  }
}

// Pass-2 kernel (one-level path): counting scatter of one chunk of W into SW.
FM_HOT_PATH void ScatterChunkScan(const PartitionPlan* plan, uint32_t num_vps,
                                  const Vid* w, const Vid* aux, Wid begin,
                                  Wid end, Wid* offs, const Wid* vp_offsets,
                                  Vid* sw, Vid* sw_aux) {
  for (Wid j = begin; j < end; ++j) {
    uint32_t bin = BinOfWalker(plan, num_vps, w[j]);
    Wid p = offs[bin]++;
    FM_DCHECK_LT(p, vp_offsets[bin + 1]);
    sw[p] = w[j];
    if (aux != nullptr) {
      sw_aux[p] = aux[j];
    }
  }
}

// Outer-pass kernel (two-level path): scatter one chunk of W by outer bin into
// the intermediate array.
FM_HOT_PATH void OuterScatterChunkScan(const PartitionPlan* plan,
                                       uint32_t num_bins, const Vid* w,
                                       const Vid* aux, Wid begin, Wid end,
                                       Wid* cursor, Wid scattered_n, Vid* inter,
                                       Vid* inter_aux) {
  for (Wid j = begin; j < end; ++j) {
    Vid v = w[j];
    uint32_t b = (v == kInvalidVid) ? num_bins : plan->OuterBinOf(v);
    Wid p = cursor[b]++;
    FM_DCHECK_LT(p, scattered_n);
    inter[p] = v;
    if (aux != nullptr) {
      inter_aux[p] = aux[j];
    }
  }
}

// Inner-pass kernel (two-level path): stable in-bin counting scatter by VP.
// Scanning the intermediate chunk in order preserves (chunk, scan) order per
// VP, matching the one-level layout.
FM_HOT_PATH void InnerScatterGroupScan(const PartitionPlan* plan,
                                       uint32_t vp_base, uint32_t vp_count,
                                       Wid begin, Wid end, Wid* offs,
                                       const Wid* vp_offsets, const Vid* inter,
                                       const Vid* inter_aux, Vid* sw,
                                       Vid* sw_aux) {
  for (Wid j = begin; j < end; ++j) {
    FM_DCHECK_GE(plan->VpOf(inter[j]), vp_base);
    uint32_t vp = plan->VpOf(inter[j]) - vp_base;
    FM_DCHECK_LT(vp, vp_count);
    Wid p = offs[vp]++;
    FM_DCHECK_LT(p, vp_offsets[vp_base + vp + 1]);
    sw[p] = inter[j];
    if (inter_aux != nullptr) {
      sw_aux[p] = inter_aux[j];
    }
  }
}

// Gather kernel: replay one chunk's counting offsets, pulling each walker's
// post-step value out of SW back into walker order. `consumed` is the debug
// bijectivity witness (null in release builds).
FM_HOT_PATH void GatherChunkScan(const PartitionPlan* plan, uint32_t num_vps,
                                 const Vid* w_prev, Wid begin, Wid end,
                                 Wid* offs, Wid n, const Vid* sw,
                                 const Vid* sw_aux, Vid* w_next, Vid* aux_next,
                                 [[maybe_unused]] uint8_t* consumed) {
  for (Wid j = begin; j < end; ++j) {
    Wid p = offs[BinOfWalker(plan, num_vps, w_prev[j])]++;
    FM_DCHECK_LT(p, n);
#ifndef NDEBUG
    FM_DCHECK_MSG(consumed[p] == 0, "SW slot " << p << " replayed twice");
    consumed[p] = 1;
#endif
    w_next[j] = sw[p];
    if (sw_aux != nullptr) {
      aux_next[j] = sw_aux[p];
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

void Shuffler::CountAndPrefix(const Vid* w, Wid n) {
  size_t row = num_vps_ + 1;
  std::fill(starts_.begin(), starts_.end(), 0);
  pool_->ParallelFor(num_chunks_, [&](uint64_t c, uint32_t) {
    Wid begin = ChunkBegin(n, num_chunks_, static_cast<uint32_t>(c));
    Wid end = ChunkBegin(n, num_chunks_, static_cast<uint32_t>(c) + 1);
    TraceSpan span("shuffle", "count_chunk");
    span.Arg("chunk", c);
    span.Arg("walkers", end - begin);
    CountChunkScan(plan_, num_vps_, w, begin, end, &starts_[c * row]);
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

void Shuffler::Scatter(const Vid* w, const Vid* aux, Wid n, Vid* sw,
                       Vid* sw_aux) {
  Timer timer;
  CountAndPrefix(w, n);
  scatter_stats_.pass1_s = timer.Lap();
  if (plan_->has_internal_shuffle()) {
    ScatterTwoLevel(w, aux, n, sw, sw_aux);
  } else {
    ScatterOneLevel(w, aux, n, sw, sw_aux);
  }
  scatter_stats_.pass2_s = timer.Lap();
}

Status Shuffler::Gather(const Vid* w_prev, Wid n, const Vid* sw, Vid* w_next,
                        const Vid* sw_aux, Vid* aux_next) {
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
    TraceSpan span("shuffle", "gather_chunk");
    span.Arg("chunk", c);
    span.Arg("walkers", end - begin);
    std::vector<Wid> offs(starts_.begin() + c * row,
                          starts_.begin() + (c + 1) * row);
    GatherChunkScan(plan_, num_vps_, w_prev, begin, end, offs.data(), n, sw,
                    sw_aux, w_next, aux_next, consumed_ptr);
  });
  gather_stats_.pass1_s = 0;
  gather_stats_.pass2_s = timer.Lap();
  return Status::Ok();
}

void Shuffler::ScatterTwoLevelForTest(const Vid* w, const Vid* aux, Wid n,
                                      Vid* sw, Vid* sw_aux) {
  CountAndPrefix(w, n);
  ScatterTwoLevel(w, aux, n, sw, sw_aux);
}

void Shuffler::ScatterOneLevel(const Vid* w, const Vid* aux, Wid n, Vid* sw,
                               Vid* sw_aux) {
  size_t row = num_vps_ + 1;
  pool_->ParallelFor(num_chunks_, [&](uint64_t c, uint32_t) {
    Wid begin = ChunkBegin(n, num_chunks_, static_cast<uint32_t>(c));
    Wid end = ChunkBegin(n, num_chunks_, static_cast<uint32_t>(c) + 1);
    TraceSpan span("shuffle", "scatter_chunk");
    span.Arg("chunk", c);
    span.Arg("walkers", end - begin);
    // Working copy so starts_ stays intact for Gather's replay.
    std::vector<Wid> offs(starts_.begin() + c * row,
                          starts_.begin() + (c + 1) * row);
    ScatterChunkScan(plan_, num_vps_, w, aux, begin, end, offs.data(),
                     vp_offsets_.data(), sw, sw_aux);
  });
}

void Shuffler::ScatterTwoLevel(const Vid* w, const Vid* aux, Wid n, Vid* sw,
                               Vid* sw_aux) {
  // Outer pass: scatter by outer bin into the intermediate array. Outer-bin chunk
  // starts derive from VP-granularity starts because each bin covers a contiguous
  // VP range.
  inter_.resize(n);
  if (aux != nullptr) {
    inter_aux_.resize(n);
  }
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
    TraceSpan span("shuffle", "scatter_outer_chunk");
    span.Arg("chunk", c);
    span.Arg("walkers", end - begin);
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
                          scattered_n_, inter_.data(),
                          aux != nullptr ? inter_aux_.data() : nullptr);
  });

  // Inner pass: internal-shuffle bins get a counting scatter from the intermediate
  // chunk into SW; single-VP bins copy through. Parallel over groups.
  const auto& groups = plan_->groups();
  pool_->ParallelFor(groups.size() + 1, [&](uint64_t gi, uint32_t) {
    TraceSpan span("shuffle", "scatter_inner_group");
    span.Arg("group", gi);
    if (gi == groups.size()) {
      // Dead bin: copy through.
      Wid begin = vp_offsets_[num_vps_];
      Wid end = vp_offsets_[num_vps_ + 1];
      if (end > begin) {
        std::memcpy(sw + begin, inter_.data() + begin,
                    (end - begin) * sizeof(Vid));
        if (aux != nullptr) {
          std::memcpy(sw_aux + begin, inter_aux_.data() + begin,
                      (end - begin) * sizeof(Vid));
        }
      }
      return;
    }
    const PartitionGroup& g = groups[gi];
    Wid begin = vp_offsets_[g.vp_base];
    Wid end = vp_offsets_[g.vp_base + g.vp_count];
    if (end == begin) {
      return;
    }
    if (!g.internal_shuffle) {
      std::memcpy(sw + begin, inter_.data() + begin,
                  (end - begin) * sizeof(Vid));
      if (aux != nullptr) {
        std::memcpy(sw_aux + begin, inter_aux_.data() + begin,
                    (end - begin) * sizeof(Vid));
      }
      return;
    }
    std::vector<Wid> offs(g.vp_count);
    for (uint32_t i = 0; i < g.vp_count; ++i) {
      offs[i] = vp_offsets_[g.vp_base + i];
    }
    InnerScatterGroupScan(plan_, g.vp_base, g.vp_count, begin, end,
                          offs.data(), vp_offsets_.data(), inter_.data(),
                          aux != nullptr ? inter_aux_.data() : nullptr, sw,
                          sw_aux);
  });
}

void Shuffler::SimulateScatter(const Vid* w, const Vid* aux, Wid n,
                               const Vid* sw, const Vid* sw_aux,
                               const MemAccessFn& access) const {
  FM_CHECK_MSG(n == scattered_n_, "simulate after the matching Scatter");
  const size_t row = num_vps_ + 1;
  // Count pass: sequential W read plus one resident counter bump per walker
  // (the scratch row stands in for the real per-chunk counter block).
  std::vector<Wid> scratch(row);
  for (uint32_t c = 0; c < num_chunks_; ++c) {
    const Wid begin = ChunkBegin(n, num_chunks_, c);
    const Wid end = ChunkBegin(n, num_chunks_, c + 1);
    for (Wid j = begin; j < end; ++j) {
      access(&w[j], sizeof(Vid));
      access(&scratch[BinOfWalker(plan_, num_vps_, w[j])], sizeof(Wid));
    }
  }
  if (!plan_->has_internal_shuffle()) {
    for (uint32_t c = 0; c < num_chunks_; ++c) {
      const Wid begin = ChunkBegin(n, num_chunks_, c);
      const Wid end = ChunkBegin(n, num_chunks_, c + 1);
      std::vector<Wid> offs(starts_.begin() + c * row,
                            starts_.begin() + (c + 1) * row);
      for (Wid j = begin; j < end; ++j) {
        access(&w[j], sizeof(Vid));
        const uint32_t bin = BinOfWalker(plan_, num_vps_, w[j]);
        const Wid p = offs[bin]++;
        access(&offs[bin], sizeof(Wid));
        access(&sw[p], sizeof(Vid));
        if (aux != nullptr) {
          access(&aux[j], sizeof(Vid));
          access(&sw_aux[p], sizeof(Vid));
        }
      }
    }
    return;
  }
  // Two-level replay: outer scatter into inter_, then per-group inner pass.
  // inter_ holds the real outer-pass output of the last Scatter, so the inner
  // replay reads genuine vertex values.
  FM_CHECK(inter_.size() >= n);
  for (uint32_t c = 0; c < num_chunks_; ++c) {
    const Wid begin = ChunkBegin(n, num_chunks_, c);
    const Wid end = ChunkBegin(n, num_chunks_, c + 1);
    std::vector<Wid> cursor(plan_->num_outer_bins() + 1);
    for (Wid j = begin; j < end; ++j) {
      access(&w[j], sizeof(Vid));
      const Vid v = w[j];
      const uint32_t b = (v == kInvalidVid) ? plan_->num_outer_bins()
                                            : plan_->OuterBinOf(v);
      access(&cursor[b], sizeof(Wid));
      // Position within inter_ is immaterial for the model: one streaming
      // write per walker into the bin's region.
      access(&inter_[j], sizeof(Vid));
      if (aux != nullptr) {
        access(&aux[j], sizeof(Vid));
        access(&inter_aux_[j], sizeof(Vid));
      }
    }
  }
  for (const PartitionGroup& g : plan_->groups()) {
    const Wid begin = vp_offsets_[g.vp_base];
    const Wid end = vp_offsets_[g.vp_base + g.vp_count];
    std::vector<Wid> offs(g.vp_count + 1);
    for (uint32_t i = 0; i < g.vp_count; ++i) {
      offs[i] = vp_offsets_[g.vp_base + i];
    }
    for (Wid j = begin; j < end; ++j) {
      access(&inter_[j], sizeof(Vid));
      if (g.internal_shuffle) {
        const uint32_t vp = plan_->VpOf(inter_[j]) - g.vp_base;
        const Wid p = offs[vp]++;
        access(&offs[vp], sizeof(Wid));
        access(&sw[p], sizeof(Vid));
      } else {
        access(&sw[j], sizeof(Vid));
      }
      if (aux != nullptr) {
        access(&inter_aux_[j], sizeof(Vid));
        access(&sw_aux[j], sizeof(Vid));
      }
    }
  }
  // Dead bin copy-through.
  for (Wid j = vp_offsets_[num_vps_]; j < vp_offsets_[num_vps_ + 1]; ++j) {
    access(&inter_[j], sizeof(Vid));
    access(&sw[j], sizeof(Vid));
  }
}

void Shuffler::SimulateGather(const Vid* w_prev, Wid n, const Vid* sw,
                              const Vid* sw_aux, const Vid* w_next,
                              const Vid* aux_next,
                              const MemAccessFn& access) const {
  FM_CHECK_MSG(n == scattered_n_, "simulate after the matching Scatter");
  const size_t row = num_vps_ + 1;
  for (uint32_t c = 0; c < num_chunks_; ++c) {
    const Wid begin = ChunkBegin(n, num_chunks_, c);
    const Wid end = ChunkBegin(n, num_chunks_, c + 1);
    std::vector<Wid> offs(starts_.begin() + c * row,
                          starts_.begin() + (c + 1) * row);
    for (Wid j = begin; j < end; ++j) {
      access(&w_prev[j], sizeof(Vid));
      const uint32_t bin = BinOfWalker(plan_, num_vps_, w_prev[j]);
      const Wid p = offs[bin]++;
      access(&offs[bin], sizeof(Wid));
      access(&sw[p], sizeof(Vid));
      access(&w_next[j], sizeof(Vid));
      if (sw_aux != nullptr) {
        access(&sw_aux[p], sizeof(Vid));
        access(&aux_next[j], sizeof(Vid));
      }
    }
  }
}

}  // namespace fm
