// MetricsExport — serializes run metadata, per-stage hardware counters, and
// derived rates (IPC, LLC miss ratio, misses/step) to JSON.
//
// Two schemas, both stable and versioned (DESIGN.md "Observability"):
//
//   fm-metrics-v1          one walk run: meta + run totals (with the per-step
//                          wall-time histogram `run.step_ns`) + per-stage
//                          counter totals + per-VP-cache-class attribution +
//                          one entry per (episode, step). Emitted by
//                          `fmwalk --metrics-json=FILE`.
//   fm-bench-trajectory-v1 named scalar series from a bench binary (the
//                          BENCH_*.json trajectory files), optionally with
//                          counter samples attached per series.
//
// fm-metrics-v1 and the Chrome trace-event view (WalkTraceJson, `fmwalk
// --trace-json=FILE`) render the run's WalkStats; neither keeps a tally of its
// own.
//
// Every document carries `"backend"`: "perf" when hardware counters were live,
// "noop" when perf_event_open was unavailable (the degradation contract: same
// schema, zero counters, exit 0), or "off" when collection wasn't requested.
#ifndef SRC_CORE_METRICS_H_
#define SRC_CORE_METRICS_H_

#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/core/partition_plan.h"
#include "src/util/perf_counters.h"

namespace fm {

// Caller-provided run identity recorded verbatim in the JSON.
struct MetricsMeta {
  std::string tool;       // "fmwalk", "fig1_highlight", ...
  std::string graph;      // input path or generator description
  std::string algorithm;  // "deepwalk" | "node2vec" | "mh"
  uint64_t seed = 0;
  uint32_t threads = 0;
};

// Walker-step attribution per VP cache class: how much of the sample stage's
// work ran against L1/L2/L3/DRAM-resident working sets (the per-VP-size-class
// view; stage counters cannot be split per VP because VP tasks run
// concurrently, but the walker-step shares weight them exactly).
struct VpClassMetrics {
  uint8_t cache_level = 0;  // 1..4 (4 = DRAM)
  uint32_t vps = 0;
  uint64_t walker_steps = 0;
  double walker_step_share = 0;
};

// Aggregates WalkStats::vp_walker_steps by the plan's VP cache levels.
// `plan` may be null (returns empty).
std::vector<VpClassMetrics> AggregateVpClasses(const PartitionPlan* plan,
                                               const WalkStats& stats);

// fm-metrics-v1 document for one run. `plan` may be null (vp_classes omitted).
std::string WalkMetricsJson(const MetricsMeta& meta, const WalkStats& stats,
                            const PartitionPlan* plan);

// Writes WalkMetricsJson to `path`; false on IO failure.
bool WriteWalkMetricsJson(const std::string& path, const MetricsMeta& meta,
                          const WalkStats& stats, const PartitionPlan* plan);

// One span of the caller's own timeline in a WalkTraceJson document (fmwalk:
// load, degree sort, run, output), in seconds from the trace's origin.
struct TracePhase {
  std::string name;
  double start_s = 0;
  double dur_s = 0;
};

// Chrome trace-event JSON for one run, rendered from `stats`: the `phases`
// (category "phase"); per episode one "episode" span; and per step record a
// "scatter" span with "count" and "scatter" children from the shuffle's pass
// split (category "shuffle"), then "sample" and "gather" spans (category
// "engine"). `run_start_s` is the Run call on the phases' timeline, so a step
// starts at run_start_s + StepStageRecord::start_s. Each stage span lasts
// exactly its record's seconds, so the engine's scatter and gather spans sum
// to times.shuffle_s and its sample spans to times.sample_s. Without
// EngineOptions::record_step_stats only the phases appear. Loads in
// ui.perfetto.dev or chrome://tracing.
std::string WalkTraceJson(const std::vector<TracePhase>& phases,
                          double run_start_s, const WalkStats& stats);

// Accumulates a bench binary's result series and writes the
// fm-bench-trajectory-v1 document (the BENCH_*.json format).
class BenchTrajectory {
 public:
  explicit BenchTrajectory(std::string bench) : bench_(std::move(bench)) {}

  // backend of the counter samples attached below; defaults to "off".
  void set_backend(std::string backend) { backend_ = std::move(backend); }
  const std::string& backend() const { return backend_; }

  // One scalar observation: series ("fig1a.deepwalk"), point label
  // ("FlashMob/YT"), value, unit ("ns/step").
  void Add(const std::string& series, const std::string& point, double value,
           const std::string& unit);

  // Attach a counter sample to a series (e.g. the run-total sample-stage
  // counters of one engine/graph combination).
  void AddCounters(const std::string& series, const CounterSample& sample);

  std::string ToJson() const;
  bool WriteJson(const std::string& path) const;

 private:
  struct Point {
    std::string series;
    std::string point;
    double value;
    std::string unit;
  };
  struct CounterPoint {
    std::string series;
    CounterSample sample;
  };
  std::string bench_;
  std::string backend_ = "off";
  std::vector<Point> points_;
  std::vector<CounterPoint> counters_;
};

}  // namespace fm

#endif  // SRC_CORE_METRICS_H_
