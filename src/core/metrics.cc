#include "src/core/metrics.h"

#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/util/json.h"

namespace fm {
namespace {

// Minimal JSON emission. The schema only needs objects, arrays, strings, and
// numbers; string escaping (the metadata may carry arbitrary file paths) is
// the shared RFC 8259 implementation in src/util/json.h, the same one the
// trace exporter uses.
void AppendEscaped(std::string* out, const std::string& s) {
  json::AppendQuoted(out, s);
}

std::string NumberToJson(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void AppendCounterObject(std::string* out, const CounterSample& c) {
  *out += '{';
  for (int i = 0; i < kNumPerfCounters; ++i) {
    if (i != 0) {
      *out += ',';
    }
    AppendEscaped(out, PerfCounterName(i));
    *out += ':';
    *out += std::to_string(c.values[i]);
  }
  *out += '}';
}

void AppendKey(std::string* out, const char* key) {
  AppendEscaped(out, key);
  *out += ':';
}

}  // namespace

std::vector<VpClassMetrics> AggregateVpClasses(const PartitionPlan* plan,
                                               const WalkStats& stats) {
  std::vector<VpClassMetrics> classes;
  if (plan == nullptr ||
      stats.vp_walker_steps.size() != plan->num_vps()) {
    return classes;
  }
  std::array<VpClassMetrics, 4> by_level{};
  uint64_t total = 0;
  for (uint32_t i = 0; i < plan->num_vps(); ++i) {
    uint8_t level = plan->vp(i).cache_level;
    if (level < 1 || level > 4) {
      level = 4;
    }
    VpClassMetrics& cls = by_level[level - 1];
    cls.cache_level = level;
    ++cls.vps;
    cls.walker_steps += stats.vp_walker_steps[i];
    total += stats.vp_walker_steps[i];
  }
  for (const VpClassMetrics& cls : by_level) {
    if (cls.vps == 0) {
      continue;
    }
    VpClassMetrics out = cls;
    out.walker_step_share =
        total == 0 ? 0.0
                   : static_cast<double>(cls.walker_steps) /
                         static_cast<double>(total);
    classes.push_back(out);
  }
  return classes;
}

std::string WalkMetricsJson(const MetricsMeta& meta, const WalkStats& stats,
                            const PartitionPlan* plan) {
  const std::string backend =
      stats.perf_backend.empty() ? "off" : stats.perf_backend;
  const double steps = static_cast<double>(
      stats.total_steps == 0 ? 1 : stats.total_steps);
  const CounterSample total = stats.counters.Total();

  std::string out;
  out.reserve(4096 + stats.step_records.size() * 512);
  out += '{';
  AppendKey(&out, "schema");
  out += "\"fm-metrics-v1\",";
  AppendKey(&out, "backend");
  AppendEscaped(&out, backend);
  out += ',';
  AppendKey(&out, "tool");
  AppendEscaped(&out, meta.tool);
  out += ',';
  AppendKey(&out, "graph");
  AppendEscaped(&out, meta.graph);
  out += ',';
  AppendKey(&out, "algorithm");
  AppendEscaped(&out, meta.algorithm);
  out += ',';
  AppendKey(&out, "seed");
  out += std::to_string(meta.seed);
  out += ',';
  AppendKey(&out, "threads");
  out += std::to_string(meta.threads);
  out += ',';

  // Run totals in wall-clock terms.
  AppendKey(&out, "run");
  out += '{';
  AppendKey(&out, "total_steps");
  out += std::to_string(stats.total_steps);
  out += ',';
  AppendKey(&out, "episodes");
  out += std::to_string(stats.episodes);
  out += ',';
  AppendKey(&out, "walker_density");
  out += NumberToJson(stats.walker_density);
  out += ',';
  AppendKey(&out, "per_step_ns");
  out += NumberToJson(stats.PerStepNs());
  out += ',';
  AppendKey(&out, "seconds");
  out += '{';
  AppendKey(&out, "sample");
  out += NumberToJson(stats.times.sample_s);
  out += ',';
  AppendKey(&out, "shuffle");
  out += NumberToJson(stats.times.shuffle_s);
  out += ',';
  AppendKey(&out, "other");
  out += NumberToJson(stats.times.other_s);
  out += "}},";

  // Run-total counters per stage + derived rates.
  AppendKey(&out, "counters");
  out += '{';
  AppendKey(&out, "scatter");
  AppendCounterObject(&out, stats.counters.scatter);
  out += ',';
  AppendKey(&out, "sample");
  AppendCounterObject(&out, stats.counters.sample);
  out += ',';
  AppendKey(&out, "gather");
  AppendCounterObject(&out, stats.counters.gather);
  out += ',';
  AppendKey(&out, "derived");
  out += '{';
  AppendKey(&out, "ipc");
  out += NumberToJson(total.Ipc());
  out += ',';
  AppendKey(&out, "llc_miss_ratio");
  out += NumberToJson(total.LlcMissRatio());
  out += ',';
  AppendKey(&out, "cycles_per_step");
  out += NumberToJson(static_cast<double>(total.cycles()) / steps);
  out += ',';
  AppendKey(&out, "llc_misses_per_step");
  out += NumberToJson(static_cast<double>(total.llc_misses()) / steps);
  out += ',';
  AppendKey(&out, "l1d_misses_per_step");
  out += NumberToJson(static_cast<double>(total.l1d_misses()) / steps);
  out += "}},";

  // Sample-stage attribution per VP cache class.
  AppendKey(&out, "vp_classes");
  out += '[';
  bool first = true;
  for (const VpClassMetrics& cls : AggregateVpClasses(plan, stats)) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += '{';
    AppendKey(&out, "cache_level");
    out += std::to_string(cls.cache_level);
    out += ',';
    AppendKey(&out, "vps");
    out += std::to_string(cls.vps);
    out += ',';
    AppendKey(&out, "walker_steps");
    out += std::to_string(cls.walker_steps);
    out += ',';
    AppendKey(&out, "walker_step_share");
    out += NumberToJson(cls.walker_step_share);
    out += '}';
  }
  out += "],";

  // One entry per (episode, step) when step records were kept.
  AppendKey(&out, "steps");
  out += '[';
  first = true;
  for (const StepStageRecord& rec : stats.step_records) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += '{';
    AppendKey(&out, "episode");
    out += std::to_string(rec.episode);
    out += ',';
    AppendKey(&out, "step");
    out += std::to_string(rec.step);
    out += ',';
    AppendKey(&out, "scatter_s");
    out += NumberToJson(rec.scatter_s);
    out += ',';
    AppendKey(&out, "sample_s");
    out += NumberToJson(rec.sample_s);
    out += ',';
    AppendKey(&out, "gather_s");
    out += NumberToJson(rec.gather_s);
    out += ',';
    AppendKey(&out, "scatter_pass1_s");
    out += NumberToJson(rec.scatter_pass1_s);
    out += ',';
    AppendKey(&out, "scatter_pass2_s");
    out += NumberToJson(rec.scatter_pass2_s);
    out += ',';
    AppendKey(&out, "gather_pass2_s");
    out += NumberToJson(rec.gather_pass2_s);
    out += ',';
    AppendKey(&out, "live_walkers");
    out += std::to_string(rec.live_walkers);
    out += ',';
    AppendKey(&out, "counters");
    out += '{';
    AppendKey(&out, "scatter");
    AppendCounterObject(&out, rec.scatter_counters);
    out += ',';
    AppendKey(&out, "sample");
    AppendCounterObject(&out, rec.sample_counters);
    out += ',';
    AppendKey(&out, "gather");
    AppendCounterObject(&out, rec.gather_counters);
    out += "}}";
  }
  out += "]}";
  return out;
}

bool WriteWalkMetricsJson(const std::string& path, const MetricsMeta& meta,
                          const WalkStats& stats, const PartitionPlan* plan) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << WalkMetricsJson(meta, stats, plan) << '\n';
  return static_cast<bool>(out);
}

void BenchTrajectory::Add(const std::string& series, const std::string& point,
                          double value, const std::string& unit) {
  points_.push_back(Point{series, point, value, unit});
}

void BenchTrajectory::AddCounters(const std::string& series,
                                  const CounterSample& sample) {
  counters_.push_back(CounterPoint{series, sample});
}

std::string BenchTrajectory::ToJson() const {
  std::string out;
  out += '{';
  AppendKey(&out, "schema");
  out += "\"fm-bench-trajectory-v1\",";
  AppendKey(&out, "bench");
  AppendEscaped(&out, bench_);
  out += ',';
  AppendKey(&out, "backend");
  AppendEscaped(&out, backend_);
  out += ',';
  AppendKey(&out, "points");
  out += '[';
  for (size_t i = 0; i < points_.size(); ++i) {
    if (i != 0) {
      out += ',';
    }
    const Point& p = points_[i];
    out += '{';
    AppendKey(&out, "series");
    AppendEscaped(&out, p.series);
    out += ',';
    AppendKey(&out, "point");
    AppendEscaped(&out, p.point);
    out += ',';
    AppendKey(&out, "value");
    out += NumberToJson(p.value);
    out += ',';
    AppendKey(&out, "unit");
    AppendEscaped(&out, p.unit);
    out += '}';
  }
  out += "],";
  AppendKey(&out, "counters");
  out += '[';
  for (size_t i = 0; i < counters_.size(); ++i) {
    if (i != 0) {
      out += ',';
    }
    out += '{';
    AppendKey(&out, "series");
    AppendEscaped(&out, counters_[i].series);
    out += ',';
    AppendKey(&out, "sample");
    AppendCounterObject(&out, counters_[i].sample);
    out += '}';
  }
  out += "]}";
  return out;
}

bool BenchTrajectory::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << ToJson() << '\n';
  return static_cast<bool>(out);
}

}  // namespace fm
