// fmmon — live view over fm-telemetry-v1 JSONL snapshot files.
//
// Usage:
//   fmmon out.jsonl             follow the file (top-like): print a
//                               per-interval summary for every new snapshot —
//                               counter rates over the interval, gauge levels,
//                               histogram percentiles
//   fmmon --summary out.jsonl   one-shot: read the whole file and summarize
//                               the run from the final cumulative snapshot
//   fmmon --exit-on-eof ...     follow mode, but stop at end-of-file instead
//                               of polling for growth (tests, post-mortems)
//
// The input is what `fmwalk --telemetry-jsonl=F` writes: one JSON object per
// line with cumulative counters, gauge levels, and histogram
// buckets/percentiles, each a rendering of the run's WalkStats. The final line
// of a completed run always holds the end-of-run values, so `--summary` on a
// finished file agrees exactly with the run's fm-metrics-v1 output.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/util/json.h"

namespace {

using fm::json::ParseJson;
using fm::json::Value;

struct Options {
  std::string path;
  bool summary = false;
  bool exit_on_eof = false;
};

int Usage(const char* self) {
  std::fprintf(stderr,
               "usage: %s [--summary] [--exit-on-eof] telemetry.jsonl\n"
               "  --summary      one-shot report from the final snapshot\n"
               "  --exit-on-eof  follow mode, but stop at end of file\n",
               self);
  return 2;
}

// One parsed snapshot line, flattened into plain maps for easy deltas.
struct Snapshot {
  double t_ns = 0;
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Value> histograms;  // name -> histogram object
  bool ok = false;
};

Snapshot ParseSnapshot(const std::string& line) {
  Snapshot snap;
  Value doc;
  try {
    doc = ParseJson(line);
  } catch (const std::exception&) {
    return snap;  // partially written tail line — skip it
  }
  if (!doc.Has("schema") || doc.Str("schema") != "fm-telemetry-v1") {
    return snap;
  }
  snap.t_ns = doc.Num("t_ns");
  for (const auto& [name, v] : doc.At("counters").object) {
    snap.counters[name] = v.number;
  }
  for (const auto& [name, v] : doc.At("gauges").object) {
    snap.gauges[name] = v.number;
  }
  for (const auto& [name, v] : doc.At("histograms").object) {
    snap.histograms[name] = v;
  }
  snap.ok = true;
  return snap;
}

void PrintHistogram(const std::string& name, const Value& h) {
  std::printf("  %-42s count %12.0f  mean %10.0f  p50 %10.0f  p90 %10.0f  "
              "p99 %10.0f  p999 %10.0f\n",
              name.c_str(), h.Num("count"),
              h.Num("count") > 0 ? h.Num("sum") / h.Num("count") : 0.0,
              h.Num("p50"), h.Num("p90"), h.Num("p99"), h.Num("p999"));
}

// Per-interval view: counter deltas as rates over the wall-clock interval,
// gauges as levels, histograms as their (cumulative) percentiles.
void PrintInterval(const Snapshot& prev, const Snapshot& cur) {
  const double dt_s = prev.ok ? (cur.t_ns - prev.t_ns) / 1e9 : 0;
  std::printf("== snapshot t=%.3fs%s\n", cur.t_ns / 1e9,
              prev.ok ? "" : " (first)");
  if (!cur.counters.empty()) {
    std::printf(" counters%s:\n", dt_s > 0 ? " (delta/s over interval)" : "");
    for (const auto& [name, value] : cur.counters) {
      if (dt_s > 0) {
        auto it = prev.counters.find(name);
        const double base = it != prev.counters.end() ? it->second : 0;
        std::printf("  %-42s %16.0f  (%12.0f /s)\n", name.c_str(), value,
                    (value - base) / dt_s);
      } else {
        std::printf("  %-42s %16.0f\n", name.c_str(), value);
      }
    }
  }
  if (!cur.gauges.empty()) {
    std::printf(" gauges:\n");
    for (const auto& [name, value] : cur.gauges) {
      std::printf("  %-42s %16.0f\n", name.c_str(), value);
    }
  }
  if (!cur.histograms.empty()) {
    std::printf(" histograms (cumulative):\n");
    for (const auto& [name, h] : cur.histograms) {
      PrintHistogram(name, h);
    }
  }
  std::fflush(stdout);
}

int Summarize(const Options& opts) {
  std::ifstream in(opts.path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", opts.path.c_str());
    return 1;
  }
  Snapshot first;
  Snapshot last;
  uint64_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    Snapshot snap = ParseSnapshot(line);
    if (!snap.ok) {
      continue;
    }
    if (!first.ok) {
      first = snap;
    }
    last = snap;
    ++lines;
  }
  if (!last.ok) {
    std::fprintf(stderr, "error: no fm-telemetry-v1 snapshots in %s\n",
                 opts.path.c_str());
    return 1;
  }
  const double span_s = (last.t_ns - first.t_ns) / 1e9;
  std::printf("%s: %llu snapshots spanning %.3fs\n", opts.path.c_str(),
              static_cast<unsigned long long>(lines), span_s);
  std::printf("counters (final cumulative%s):\n",
              span_s > 0 ? ", mean rate over the file span" : "");
  for (const auto& [name, value] : last.counters) {
    if (span_s > 0) {
      auto it = first.counters.find(name);
      const double base = it != first.counters.end() ? it->second : 0;
      std::printf("  %-42s %16.0f  (%12.0f /s)\n", name.c_str(), value,
                  (value - base) / span_s);
    } else {
      std::printf("  %-42s %16.0f\n", name.c_str(), value);
    }
  }
  std::printf("gauges (final):\n");
  for (const auto& [name, value] : last.gauges) {
    std::printf("  %-42s %16.0f\n", name.c_str(), value);
  }
  std::printf("histograms (final):\n");
  for (const auto& [name, h] : last.histograms) {
    PrintHistogram(name, h);
  }
  return 0;
}

int Follow(const Options& opts) {
  std::ifstream in(opts.path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", opts.path.c_str());
    return 1;
  }
  Snapshot prev;
  std::string line;
  while (true) {
    if (std::getline(in, line)) {
      if (line.empty()) {
        continue;
      }
      Snapshot snap = ParseSnapshot(line);
      if (!snap.ok) {
        continue;
      }
      PrintInterval(prev, snap);
      prev = snap;
      continue;
    }
    if (opts.exit_on_eof) {
      return prev.ok ? 0 : 1;
    }
    // Writer may still be appending: clear the EOF latch and poll.
    in.clear();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--summary") == 0) {
      opts.summary = true;
    } else if (std::strcmp(argv[i], "--exit-on-eof") == 0) {
      opts.exit_on_eof = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return Usage(argv[0]);
    } else if (opts.path.empty()) {
      opts.path = argv[i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (opts.path.empty()) {
    return Usage(argv[0]);
  }
  return opts.summary ? Summarize(opts) : Follow(opts);
}
