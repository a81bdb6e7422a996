// Streaming WalkObserver sinks — the engine's consumer-facing layer.
//
// Observers receive walker positions *inside* the engine's parallel stages, as
// they are produced, instead of scanning materialized outputs afterwards:
//
//   OnPlacementChunk  inside the parallel placement loop (walker order, row 0)
//   OnSampleChunk     inside the per-VP sample tasks, right after the kernel
//                     (partition order, post-step positions, fresh kills are
//                     kInvalidVid; the dead bin is never delivered)
//
// Positions after placement are not streamed in walker order:
// WalkSpec::keep_paths is the one reader of walker order.
//
// Thread-safety contract: the chunk callbacks above run concurrently on worker
// threads, and a single callback invocation only ever covers a range no other
// concurrent invocation covers. The sample tasks are dynamically scheduled,
// so an observer's state must not depend on callback order (integer adds, or
// a lock). OnRunBegin / OnStepEnd / OnRunEnd are serial and happen-before /
// happen-after all parallel callbacks of their scope, and may read the run's
// tally so far through WalkRunInfo::stats — that is how ProgressReporter
// below renders the same numbers the run returns. See DESIGN.md "Engine
// layering".
#ifndef SRC_CORE_WALK_OBSERVER_H_
#define SRC_CORE_WALK_OBSERVER_H_

#include <cstdint>
#include <cstdio>
#include <span>

#include "src/util/types.h"

namespace fm {

struct WalkStats;

// Immutable per-run facts handed to every observer before the first episode.
// `stats` stays valid for the whole run but may only be read from the serial
// callbacks (the engine updates it between them).
struct WalkRunInfo {
  uint32_t steps = 0;
  uint64_t episodes = 0;  // episodes the run will execute
  const WalkStats* stats = nullptr;  // the run's tally so far
};

class WalkObserver {
 public:
  virtual ~WalkObserver() = default;

  // Serial, once per Run, before any episode.
  virtual void OnRunBegin(const WalkRunInfo& info) { (void)info; }

  // Parallel. positions[i] is the start vertex of episode-local walker
  // begin + i (never kInvalidVid).
  virtual void OnPlacementChunk(Wid begin, std::span<const Vid> positions) {
    (void)begin;
    (void)positions;
  }

  // Parallel, inside the sample stage, after the kernel moved one VP's walker
  // chunk one step. positions are the post-step locations in partition order
  // (kInvalidVid = terminated on this step). Walkers already dead before the
  // step are not delivered.
  virtual void OnSampleChunk(std::span<const Vid> positions) {
    (void)positions;
  }

  // Serial, at the per-step barrier after `step` of `episode` (every stage
  // done, its numbers already in WalkRunInfo::stats). `live_walkers` is how
  // many walkers the step moved.
  virtual void OnStepEnd(uint64_t episode, uint32_t step, Wid live_walkers) {
    (void)episode;
    (void)step;
    (void)live_walkers;
  }

  // Serial, once per Run, after the last episode.
  virtual void OnRunEnd() {}
};

// Live heartbeat (`fmwalk --progress[=SECONDS]`) rendered from the run's
// WalkStats at the engine's per-step barrier — no extra thread. Prints at most
// once per interval: episode/step position, live walkers, walker-steps/sec
// and the ETA from the step fraction, plus one final line at run end.
// interval_s == 0 prints every step.
class ProgressReporter : public WalkObserver {
 public:
  explicit ProgressReporter(double interval_s = 10.0, std::FILE* out = nullptr);

  void OnRunBegin(const WalkRunInfo& info) override;
  void OnStepEnd(uint64_t episode, uint32_t step, Wid live_walkers) override;
  void OnRunEnd() override;

  uint64_t lines_printed() const { return lines_printed_; }

 private:
  void PrintLine(uint64_t episode, uint32_t step, Wid live_walkers,
                 bool final_line);

  double interval_s_;
  std::FILE* out_;  // defaults to stderr
  const WalkStats* stats_ = nullptr;
  uint64_t total_episodes_ = 0;
  uint32_t steps_per_episode_ = 0;
  uint64_t ticks_done_ = 0;
  uint64_t start_ns_ = 0;
  uint64_t last_print_ns_ = 0;
  uint64_t lines_printed_ = 0;
};

}  // namespace fm

#endif  // SRC_CORE_WALK_OBSERVER_H_
