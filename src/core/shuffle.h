// Walker-to-partition shuffle (§4.3).
//
// Between walk steps, the walker array W_i (walker order) is regrouped into SW_i
// (partition order) by a two-pass counting shuffle: pass 1 counts walkers per
// destination partition per thread chunk, pass 2 scatters after a prefix sum,
// escalating to the two-level outer/inner path of §4.4 when the plan has
// internal-shuffle groups.
//
// Within each partition, SW preserves the W-scan order — this implicit ordering
// is what lets the engine recover walker identities without storing
// <walker, vertex> pairs: after the sample stage overwrites SW in place,
// Gather() re-scans W_i, replays the same counting offsets, and writes each
// walker's new location back to its walker-order slot in W_{i+1} ("Compact
// walker state storage").
#ifndef SRC_CORE_SHUFFLE_H_
#define SRC_CORE_SHUFFLE_H_

#include <vector>

#include "src/cachesim/mem_hook.h"
#include "src/core/partition_plan.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"
#include "src/util/types.h"

namespace fm {

// Per-operation stage breakdown, refreshed by every Scatter/Gather call.
struct ShuffleOpStats {
  // Scatter: the counting pass (+ prefix sum). 0 for Gather.
  double pass1_s = 0;
  // Scatter: the scatter into SW / Gather: the walker-order replay.
  double pass2_s = 0;
};

class Shuffler {
 public:
  Shuffler(const PartitionPlan* plan, ThreadPool* pool);

  // Scatters w[0..n) into sw[0..n), grouped by vertex partition (dead walkers —
  // value kInvalidVid — go to a trailing dead bin). `aux`/`sw_aux` optionally carry
  // a second per-walker attribute through the same permutation (node2vec's previous
  // vertex). After Scatter, vp_offsets()[i]..vp_offsets()[i+1] is partition i's
  // chunk. Records the op's pass timings in last_scatter_stats().
  //
  // The kernels are templated on a memory hook (cachesim/mem_hook.h), like the
  // sample kernels: each W read, counter bump, SW write and aux element is one
  // hook access. NullMemHook compiles away; CacheSimHook feeds the Table 5 /
  // Fig 1b simulation (run it on a one-thread pool — the hook is not
  // thread-safe).
  template <typename Hook>
  void Scatter(const Vid* w, const Vid* aux, Wid n, Vid* sw, Vid* sw_aux,
               Hook& hook);
  void Scatter(const Vid* w, const Vid* aux, Wid n, Vid* sw, Vid* sw_aux) {
    NullMemHook hook;
    Scatter(w, aux, n, sw, sw_aux, hook);
  }

  // Replays the permutation from w_prev (the array Scatter consumed): writes
  // w_next[j] = sw[position walker j's element was scattered to], and likewise for
  // the aux stream when supplied. Fails (without aborting) when `n` differs
  // from the last Scatter's walker count — the replay would not be a
  // bijection.
  template <typename Hook>
  [[nodiscard]] Status Gather(const Vid* w_prev, Wid n, const Vid* sw,
                              Vid* w_next, const Vid* sw_aux, Vid* aux_next,
                              Hook& hook);
  [[nodiscard]] Status Gather(const Vid* w_prev, Wid n, const Vid* sw,
                              Vid* w_next, const Vid* sw_aux, Vid* aux_next) {
    NullMemHook hook;
    return Gather(w_prev, n, sw, w_next, sw_aux, aux_next, hook);
  }

  // Partition chunk boundaries in SW: size num_vps + 2 (entry num_vps is the dead
  // bin start; entry num_vps+1 == n).
  const std::vector<Wid>& vp_offsets() const { return vp_offsets_; }

  Wid dead_count() const {
    return vp_offsets_.back() - vp_offsets_[vp_offsets_.size() - 2];
  }

  const ShuffleOpStats& last_scatter_stats() const { return scatter_stats_; }
  const ShuffleOpStats& last_gather_stats() const { return gather_stats_; }

  // Exposed for tests: scatter via the explicit two-level path (outer bins then
  // in-bin counting) regardless of plan.has_internal_shuffle(); must produce the
  // same layout as the one-level path.
  void ScatterTwoLevelForTest(const Vid* w, const Vid* aux, Wid n, Vid* sw,
                              Vid* sw_aux);

 private:
  // Pass 1 + prefix sum: fills starts_ and vp_offsets_ for input w[0..n).
  template <typename Hook>
  void CountAndPrefix(const Vid* w, Wid n, Hook& hook);
  template <typename Hook>
  void ScatterOneLevel(const Vid* w, const Vid* aux, Wid n, Vid* sw,
                       Vid* sw_aux, Hook& hook);
  template <typename Hook>
  void ScatterTwoLevel(const Vid* w, const Vid* aux, Wid n, Vid* sw,
                       Vid* sw_aux, Hook& hook);

  const PartitionPlan* plan_;
  ThreadPool* pool_;
  uint32_t num_vps_;
  uint32_t num_chunks_;
  Wid scattered_n_ = 0;

  // starts_[chunk * (num_vps_+1) + vp] = first SW slot for that (chunk, vp) pair.
  std::vector<Wid> starts_;
  std::vector<Wid> vp_offsets_;
  ShuffleOpStats scatter_stats_;
  ShuffleOpStats gather_stats_;

  // Scratch for the two-level path.
  std::vector<Vid> inter_;
  std::vector<Vid> inter_aux_;
};

}  // namespace fm

#endif  // SRC_CORE_SHUFFLE_H_
