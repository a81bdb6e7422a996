// Episode walker storage, sizing, and initial placement — the engine's buffer
// layer (§3 initial placement, §4.3 walker-state rows, §5.1 episode sizing).
//
// A WalkerState owns one episode's walker arrays and the rotation discipline
// over them:
//   keep_paths      the PathSet rows *are* the W_i arrays (zero-copy history,
//                   and the one reader of walker order after placement);
//   rotating mode   three rows (prev / cur / next gather target) plus the SW
//                   scratch, with the node2vec predecessor stream riding along.
// The engine only ever asks for the current row, the scatter aux stream, and
// the next gather target; which physical buffer backs each is this class's
// business. So is the scan width: the prefix of the rows that still holds
// every live walker, which shrinks as stop-probability walkers die (Squeeze,
// AdvanceIdentityFree). Initial placement (PlaceWalkers) is a free function,
// because the KnightKing and GraphVite baselines place their walkers through
// it too.
#ifndef SRC_CORE_WALKER_STATE_H_
#define SRC_CORE_WALKER_STATE_H_

#include <algorithm>
#include <span>
#include <vector>

#include "src/core/path_set.h"
#include "src/core/walk_spec.h"
#include "src/util/thread_pool.h"
#include "src/util/types.h"

namespace fm {

class CsrGraph;
class WalkObserver;

// Walkers per episode under `dram_budget_bytes` (§5.1 "configured at runtime
// based on DRAM capacity"): bounded by per-walker state bytes, floored at 1024.
Wid EpisodeCapacity(const WalkSpec& spec, uint64_t dram_budget_bytes,
                    Vid num_vertices);

// Runs body(begin, end, worker) on `pool` for each run of `range` walkers in
// [0, count). The cut depends on `count` alone, so an RNG stream keyed by
// `begin` draws the same numbers at every pool size.
template <typename Body>
void ForEachWalkerRange(ThreadPool* pool, Wid count, Wid range,
                        const Body& body) {
  pool->ParallelFor((count + range - 1) / range, [&](uint64_t r, uint32_t w) {
    body(r * range, std::min<Wid>((r + 1) * range, count), w);
  });
}

// The one initial placement of all three engines. Fills `row` (entry j is
// walker base_walker + j) round-robin from spec.start_vertices when
// non-empty, else degree-proportionally ("uniformly sampling among all
// edges", §3), and calls each observer's OnPlacementChunk per block. The
// spec must pass CheckWalkSpec.
void PlaceWalkers(const CsrGraph& graph, const WalkSpec& spec,
                  ThreadPool* pool, uint64_t episode, Wid base_walker,
                  std::span<Vid> row,
                  std::span<WalkObserver* const> observers = {});

class WalkerState {
 public:
  // Walkers per pool task of Squeeze's packing pass. The squeezed prefix
  // does not depend on it.
  static constexpr Wid kSqueezeRange = 1 << 14;

  // `graph` and `spec` must outlive the state. `walkers` is this episode's
  // size (<= EpisodeCapacity).
  WalkerState(const CsrGraph& graph, const WalkSpec& spec, Wid walkers);

  Wid size() const { return walkers_; }

  // Slots the next Scatter scans: every live walker of cur() (and, for
  // node2vec, its predecessor entry) lies in [0, width()). Starts at size();
  // only Squeeze and AdvanceIdentityFree shrink it, so keep_paths runs scan
  // their full-width path rows.
  Wid width() const { return width_; }

  // W_i, walker order.
  Vid* cur() { return w_cur_; }
  const Vid* cur() const { return w_cur_; }

  // Shuffle scratch (partition order after Scatter).
  Vid* sw() { return sw_.data(); }
  // Predecessor scratch (node2vec only; nullptr otherwise).
  Vid* sw_prev() { return sw_prev_.empty() ? nullptr : sw_prev_.data(); }

  // Predecessor source to carry through the next Scatter, or nullptr when the
  // step has none (non-node2vec walks, and the first tracked node2vec step).
  const Vid* scatter_aux() const;

  // Call right after Scatter with the aux pointer that was passed: fills the
  // predecessor scratch with kInvalidVid on the first tracked node2vec step
  // (the kernel's "take a uniform first-order step" marker).
  void AfterScatter(const Vid* aux);

  // Destination row for the reverse shuffle of `step` (the PathSet row in
  // keep_paths mode, the free rotation buffer otherwise). Call before Gather;
  // then AdvanceTracked(step) after it.
  Vid* GatherTarget(uint32_t step);

  // Rotate rows after a tracked-mode Gather into GatherTarget(step):
  // prev <- cur <- next, oldest buffer becomes the next free target.
  void AdvanceTracked(uint32_t step);

  // Identity-free step: the sampled SW (and predecessor stream) becomes the
  // next walker array; no Gather ran. `live_prefix` is the scatter's VP-chunk
  // total (vp_offsets()[num_vps]): behind it lies only the dead bin, so it
  // becomes the width.
  void AdvanceIdentityFree(Wid live_prefix);

  // Tracked runs without keep_paths, after AdvanceTracked: moves the live
  // walkers of cur()[0, width()) into a dense prefix in walker order, carries
  // node2vec's predecessor row along with the same mask, and sets width() to
  // the live count. Walker order within every VP is kept, so the next scatter
  // lays each live walker at the same index of the same VP chunk and the walk
  // does not change. The squeeze runs in place on `pool`: each fixed range of
  // kSqueezeRange walkers packs its own survivors at its front, then one
  // left shift per range closes the gaps between them. Every row access goes
  // through `hook`.
  template <typename Hook>
  void Squeeze(ThreadPool* pool, Hook& hook);

  // Moves the episode's path rows out (keep_paths mode only).
  PathSet TakePaths();

 private:
  const CsrGraph& graph_;
  const WalkSpec& spec_;
  Wid walkers_;
  Wid width_;
  bool node2vec_;
  bool identity_free_;

  PathSet paths_;  // keep_paths mode: rows double as the W_i arrays
  std::vector<Vid> rot_a_, rot_b_, rot_c_;
  std::vector<Vid> sw_;
  std::vector<Vid> sw_prev_;

  Vid* w_cur_ = nullptr;
  Vid* w_prev_ = nullptr;    // W_{i-1} (node2vec predecessor source)
  Vid* free_buf_ = nullptr;  // receives the next gather
  Vid* free_buf2_ = nullptr;
};

}  // namespace fm

#endif  // SRC_CORE_WALKER_STATE_H_
