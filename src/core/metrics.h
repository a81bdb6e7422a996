// MetricsExport — serializes run metadata, per-stage hardware counters, and
// derived rates (IPC, LLC miss ratio, misses/step) to JSON.
//
// Three schemas, all stable and versioned (DESIGN.md "Observability"):
//
//   fm-metrics-v1          one walk run: meta + run totals + per-stage
//                          counter totals + per-VP-cache-class attribution +
//                          one entry per (episode, step). Emitted by
//                          `fmwalk --metrics-json=FILE`.
//   fm-bench-trajectory-v1 named scalar series from a bench binary (the
//                          BENCH_*.json trajectory files), optionally with
//                          counter samples attached per series.
//   fm-telemetry-v1        one JSONL line per live view of a running walk
//                          (`fmwalk --telemetry-jsonl=FILE`, read by fmmon).
//
// All three, and the Chrome trace-event view (WalkTraceJson, `fmwalk
// --trace-json=FILE`), render the run's WalkStats; none keeps a tally of its
// own.
//
// Every document carries `"backend"`: "perf" when hardware counters were live,
// "noop" when perf_event_open was unavailable (the degradation contract: same
// schema, zero counters, exit 0), or "off" when collection wasn't requested.
#ifndef SRC_CORE_METRICS_H_
#define SRC_CORE_METRICS_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/core/partition_plan.h"
#include "src/core/walk_observer.h"
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

// Live fm-telemetry-v1 view of one run (`fmwalk --telemetry-jsonl`): writes a
// line when the run begins (all counters zero), at most one per `interval_ms`
// at the engine's step barriers, and one when the run ends. The file thus
// holds >= 2 lines, and the last one equals the returned WalkStats (and so
// fm-metrics-v1) exactly. Each line carries counters
// fm.engine.{walker_steps,episodes,sample_ns,shuffle_ns}_total, the gauge
// fm.engine.live_walkers, and the histogram fm.engine.step_ns (count, sum,
// p50/p90/p99/p999, non-empty log2 buckets). `out` is not owned; each line is
// flushed so `fmmon` can follow the file live, and a line that cannot be
// written or flushed sets write_failed().
class TelemetryJsonlObserver : public WalkObserver {
 public:
  TelemetryJsonlObserver(std::FILE* out, uint32_t interval_ms);

  void OnRunBegin(const WalkRunInfo& info) override;
  void OnStepEnd(uint64_t episode, uint32_t step, Wid live_walkers) override;
  void OnRunEnd() override;

  uint64_t lines_written() const { return lines_written_; }
  bool write_failed() const { return write_failed_; }

 private:
  void WriteLine(uint64_t now_ns, Wid live_walkers);

  std::FILE* out_;
  uint64_t interval_ns_;
  const WalkStats* stats_ = nullptr;
  uint64_t last_line_ns_ = 0;
  uint64_t lines_written_ = 0;
  bool write_failed_ = false;
};

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
