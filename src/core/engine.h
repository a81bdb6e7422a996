// FlashMobEngine — the paper's primary contribution assembled (§3, §4).
//
// The engine is a thin pipeline orchestrator over three layers:
//   walker_state.h   episode buffers, sizing, placement, row rotation
//   step_kernel.h    uniform per-VP kernel dispatch over the §4.2 kernels
//   walk_observer.h  streaming sinks fed inside the parallel stages
//
// Per walk iteration:
//   shuffle  : Scatter W_i (walker order) into SW (partition order)        [§4.3]
//   sample   : one task per VP moves its walkers one step, in place        [§4.2]
//   reverse  : Gather replays the scatter to produce W_{i+1} (walker order)[§4.3]
//
// The W_i rows double as the full path history; walkers are split into episodes
// sized to the DRAM budget (§5.1). The partition plan comes from the MCKP DP (§4.4)
// unless overridden (the Fig 9 ablations inject uniform/manual plans).
// Visit counts accumulate in per-worker shards inside the placement and sample
// tasks (no serial per-step pass) and merge once per episode.
#ifndef SRC_CORE_ENGINE_H_
#define SRC_CORE_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cachesim/hierarchy.h"
#include "src/core/cost_model.h"
#include "src/core/partition_plan.h"
#include "src/core/path_set.h"
#include "src/core/walk_spec.h"
#include "src/graph/csr_graph.h"
#include "src/sampling/vertex_alias.h"
#include "src/util/perf_counters.h"
#include "src/util/thread_pool.h"

namespace fm {

class ProgressReporter;
class WalkObserver;

struct StageTimes {
  double sample_s = 0;
  double shuffle_s = 0;
  double other_s = 0;
  double Total() const { return sample_s + shuffle_s + other_s; }
};

// Structured per-step stage record (EngineOptions::record_step_stats): one per
// (episode, step) with per-stage seconds and the per-VP walker distribution —
// the granular view the run-level StageTimes aggregates away.
struct StepStageRecord {
  uint64_t episode = 0;
  uint32_t step = 0;
  double scatter_s = 0;
  double sample_s = 0;
  double gather_s = 0;          // 0 in identity-free mode (no reverse shuffle)
  // Shuffle pass breakdown of scatter_s/gather_s (ShuffleOpStats): pass 1 is
  // the scatter's counting pass, pass 2 the scatter / the gather's replay.
  double scatter_pass1_s = 0;
  double scatter_pass2_s = 0;
  double gather_pass2_s = 0;
  Wid live_walkers = 0;         // walkers the sample stage moved this step
  std::vector<Wid> vp_walkers;  // walkers per VP chunk this step
  // Hardware-counter deltas per stage, summed over all participating threads
  // (EngineOptions::collect_counters; all-zero under the noop backend).
  CounterSample scatter_counters;
  CounterSample sample_counters;
  CounterSample gather_counters;
};

// Run-total hardware-counter deltas per pipeline stage
// (EngineOptions::collect_counters).
struct StageCounters {
  CounterSample scatter;
  CounterSample sample;
  CounterSample gather;
  CounterSample Total() const {
    CounterSample t = scatter;
    t += sample;
    t += gather;
    return t;
  }
};

struct WalkStats {
  uint64_t total_steps = 0;  // walker-steps executed
  StageTimes times;
  uint32_t episodes = 0;
  // Mean episode size in walkers per edge (the density the plan is sized for).
  double walker_density = 0;

  // Walker-steps served by each VP (Fig 10b's weighting), indexed by plan VP.
  std::vector<uint64_t> vp_walker_steps;

  // Per-step stage records; empty unless EngineOptions::record_step_stats.
  std::vector<StepStageRecord> step_records;

  // Run-total stage counters and the backend that produced them: "perf" when
  // hardware counters were live, "noop" when perf_event_open was unavailable
  // (container, perf_event_paranoid), "" when collection was off.
  StageCounters counters;
  std::string perf_backend;

  // Simulated-cache counter deltas attributed to the shuffle stage (scatter +
  // gather replays); only populated by RunInstrumented.
  CacheCounters sim_shuffle;

  double PerStepNs() const {
    return total_steps == 0 ? 0 : times.Total() * 1e9 / static_cast<double>(total_steps);
  }
};

struct WalkResult {
  PathSet paths;                        // empty unless spec.keep_paths
  std::vector<uint64_t> visit_counts;   // per vertex (including start positions)
  WalkStats stats;
};

struct EngineOptions {
  PartitionPlan::Config plan;
  // Cost model for the planner; nullptr = AnalyticCostModel over plan.cache.
  const CostModel* cost_model = nullptr;
  // Budget for walker state; bounds walkers per episode. 0 = FM_DRAM_MB env
  // (default 4096 MB).
  uint64_t dram_budget_bytes = 0;
  ThreadPool* pool = nullptr;  // nullptr = ThreadPool::Global()
  // Accumulate per-vertex visit counts via an internal sharded observer (the
  // accumulation rides inside the parallel stages; benches measuring pure walk
  // speed turn it off to also skip the per-episode merge).
  bool count_visits = true;
  // Record a StepStageRecord per (episode, step) in WalkStats::step_records.
  bool record_step_stats = false;
  // Measure hardware counters (cycles, LLC/L1D/dTLB misses, ...) per stage via
  // perf_event_open over every pool thread. Degrades to a no-op backend
  // (WalkStats::perf_backend == "noop") where the syscall is unavailable —
  // never a failure. Adds a few syscalls per stage boundary; leave off for
  // pure speed benchmarking.
  bool collect_counters = false;
  // Optional live heartbeat (src/util/trace.h). Driven from the engine's
  // per-step barrier on the calling thread — no extra thread, one call per
  // step. Must outlive Run.
  ProgressReporter* progress = nullptr;
};

class FlashMobEngine {
 public:
  // `graph` must outlive the engine and be degree-sorted descending (see
  // DegreeSort()); aborts otherwise.
  explicit FlashMobEngine(const CsrGraph& graph, EngineOptions options = {});
  ~FlashMobEngine();

  // Replaces the auto-built plan (ablations). Must tile the engine's graph.
  void SetPlan(PartitionPlan plan);

  // The plan used by the last Run (or the injected one).
  const PartitionPlan& plan() const;

  WalkResult Run(const WalkSpec& spec);

  // Streaming variant: each observer's chunk callbacks fire inside the
  // parallel placement / sample / (optionally) gather stages — see
  // walk_observer.h for the exact contract. Observers must outlive the call.
  WalkResult Run(const WalkSpec& spec,
                 const std::vector<WalkObserver*>& observers);

  // Single-threaded run feeding every sample-stage access (and a streaming model of
  // the shuffle passes) through `sim` (Table 5 / Fig 1b). Workloads should be small;
  // simulation is ~100x slower than the real walk.
  WalkResult RunInstrumented(const WalkSpec& spec, CacheHierarchy* sim);
  WalkResult RunInstrumented(const WalkSpec& spec, CacheHierarchy* sim,
                             const std::vector<WalkObserver*>& observers);

  // Walkers per episode for a given spec (exposed for the NUMA modes / tests).
  Wid EpisodeWalkers(const WalkSpec& spec) const;

  const CsrGraph& graph() const { return graph_; }

 private:
  template <typename Hook>
  WalkResult RunImpl(const WalkSpec& spec, Hook& hook, bool single_thread,
                     const std::vector<WalkObserver*>& observers);

  void EnsurePlan(const WalkSpec& spec, Wid episode_walkers);

  const CsrGraph& graph_;
  EngineOptions options_;
  std::unique_ptr<CostModel> default_model_;
  std::optional<PartitionPlan> plan_;
  bool plan_injected_ = false;
  // Built on first weighted Run; reused after (the classical alias pre-processing).
  std::unique_ptr<VertexAliasTables> alias_tables_;
};

}  // namespace fm

#endif  // SRC_CORE_ENGINE_H_
