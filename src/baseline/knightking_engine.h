// KnightKing-like walker-centric baseline (Yang et al., SOSP 2019; §2.2, §5.1).
//
// The state-of-the-art comparison system: walkers advance in lockstep rounds, each
// sampling one edge with random whole-graph accesses; no partitioning or batching.
// Per §5.2 it uses the Mersenne Twister RNG (switchable to xorshift* to re-run the
// paper's 4-9% RNG ablation). Single-node mode of the original distributed engine.
#ifndef SRC_BASELINE_KNIGHTKING_ENGINE_H_
#define SRC_BASELINE_KNIGHTKING_ENGINE_H_

#include "src/cachesim/hierarchy.h"
#include "src/core/engine.h"  // WalkResult / WalkStats
#include "src/core/interleave.h"
#include "src/graph/csr_graph.h"
#include "src/util/thread_pool.h"

namespace fm {

struct BaselineOptions {
  ThreadPool* pool = nullptr;    // nullptr = global
  bool use_mersenne = true;      // KnightKing's RNG (§5.2); false = xorshift*
  bool count_visits = true;
  // Step-interleaving ring depth (src/core/interleave.h), honored on the
  // xorshift path only: that path seeds one RNG stream per walker, which makes
  // walks bit-identical at every depth. The Mersenne path keeps the historical
  // per-chunk stream (re-seeding a 2.5 KB mt19937_64 state per walker would
  // dominate the step) and always runs sequentially. 1 disables.
  uint32_t interleave_depth = 1;
};

class KnightKingEngine {
 public:
  explicit KnightKingEngine(const CsrGraph& graph, BaselineOptions options = {});

  WalkResult Run(const WalkSpec& spec);

  // Single-threaded run with every access fed through `sim` (Table 5 / Fig 1b).
  WalkResult RunInstrumented(const WalkSpec& spec, CacheHierarchy* sim);

  // Ring depth the last run executed with (1 = sequential: the Mersenne path
  // and instrumented runs) and the software prefetches it issued.
  uint32_t last_depth() const { return last_depth_; }
  const InterleaveStats& last_prefetch() const { return last_prefetch_; }

 private:
  template <typename Rng, typename Hook>
  WalkResult RunImpl(const WalkSpec& spec, Hook& hook, bool single_thread);

  const CsrGraph& graph_;
  BaselineOptions options_;
  uint32_t last_depth_ = 1;
  InterleaveStats last_prefetch_;
};

}  // namespace fm

#endif  // SRC_BASELINE_KNIGHTKING_ENGINE_H_
