// Episode walker storage, sizing, and initial placement — the engine's buffer
// layer (§3 initial placement, §4.3 walker-state rows, §5.1 episode sizing).
//
// A WalkerState owns one episode's walker arrays and the rotation discipline
// over them:
//   keep_paths      the PathSet rows *are* the W_i arrays (zero-copy history);
//   rotating mode   three rows (prev / cur / next gather target) plus the SW
//                   scratch, with the node2vec predecessor stream riding along.
// The engine only ever asks for the current row, the scatter aux stream, and
// the next gather target; which physical buffer backs each is this class's
// business. Placement (degree-proportional or seeded round-robin) runs on the
// pool and feeds WalkObserver::OnPlacementChunk inside the parallel loop.
#ifndef SRC_CORE_WALKER_STATE_H_
#define SRC_CORE_WALKER_STATE_H_

#include <span>
#include <vector>

#include "src/core/path_set.h"
#include "src/core/walk_spec.h"
#include "src/util/types.h"

namespace fm {

class CsrGraph;
class ThreadPool;
class WalkObserver;

// Walkers per episode under `dram_budget_bytes` (§5.1 "configured at runtime
// based on DRAM capacity"): bounded by per-walker state bytes, floored at 1024.
Wid EpisodeCapacity(const WalkSpec& spec, uint64_t dram_budget_bytes,
                    Vid num_vertices);

class WalkerState {
 public:
  // `graph` and `spec` must outlive the state. `walkers` is this episode's
  // size (<= EpisodeCapacity).
  WalkerState(const CsrGraph& graph, const WalkSpec& spec, Wid walkers);

  Wid size() const { return walkers_; }

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
  // next walker array; no Gather ran.
  void AdvanceIdentityFree();

  // Initial placement into cur(): seeded round-robin over
  // spec.start_vertices (walker j gets starts[(base_walker + j) % size]) when
  // non-empty — the caller must have range-validated them — else
  // degree-proportional ("uniformly sampling among all edges", §3).
  // Invokes OnPlacementChunk on each observer inside the parallel loop.
  void Place(ThreadPool* pool, uint64_t episode, Wid base_walker,
             std::span<WalkObserver* const> observers);

  // Moves the episode's path rows out (keep_paths mode only).
  PathSet TakePaths();

 private:
  const CsrGraph& graph_;
  const WalkSpec& spec_;
  Wid walkers_;
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
