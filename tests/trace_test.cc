// Views of a run's WalkStats that show time: the progress heartbeat, and the
// Chrome trace-event document (WalkTraceJson) whose engine spans must last
// exactly the seconds the run recorded, so the trace cannot disagree with
// fm-metrics-v1.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/core/algorithms/deepwalk.h"
#include "src/core/engine.h"
#include "src/core/metrics.h"
#include "src/core/walk_observer.h"
#include "src/gen/powerlaw_graph.h"
#include "src/graph/degree_sort.h"
#include "src/util/json.h"

namespace fm {
namespace {

// Collects the "X" spans from a trace document.
std::vector<json::Value> Spans(const json::Value& doc) {
  std::vector<json::Value> spans;
  for (const json::Value& e : doc.At("traceEvents").array) {
    if (e.Str("ph") == "X") {
      spans.push_back(e);
    }
  }
  return spans;
}

TEST(TraceTest, ProgressReporterPrintsAndCounts) {
  PowerLawConfig config;
  config.degrees.num_vertices = 1000;
  config.degrees.avg_degree = 8;
  DegreeSortedGraph sorted = DegreeSort(GeneratePowerLawGraph(config));
  EngineOptions options;
  options.dram_budget_bytes = 1500 * 6 * sizeof(Vid);  // 1500 walkers/episode
  FlashMobEngine engine(sorted.graph, options);
  WalkSpec spec = DeepWalkSpec(sorted.graph.num_vertices(), /*steps=*/3);
  spec.num_walkers = 3000;
  spec.keep_paths = false;

  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  ProgressReporter reporter(/*interval_s=*/0, sink);
  WalkResult result = engine.Run(spec, {&reporter});
  ASSERT_EQ(result.stats.episodes, 2u);
  // interval 0 prints every step, plus the final line.
  EXPECT_EQ(reporter.lines_printed(), 7u);

  std::rewind(sink);
  std::vector<std::string> lines;
  char buf[256] = {0};
  while (std::fgets(buf, sizeof(buf), sink) != nullptr) {
    lines.emplace_back(buf);
  }
  std::fclose(sink);
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_EQ(lines[0].rfind("[fm] ep 1/2 step 1/3 live 1500 ", 0), 0u)
      << lines[0];
  EXPECT_EQ(lines[5].rfind("[fm] ep 2/2 step 3/3 live 1500 ", 0), 0u)
      << lines[5];
  // The final line renders the run's WalkStats.
  EXPECT_EQ(lines[6].rfind("[fm] done: " +
                               std::to_string(result.stats.total_steps) +
                               " walker-steps",
                           0),
            0u)
      << lines[6];
}

TEST(TraceTest, RenderedTraceAgreesExactlyWithTheRun) {
  PowerLawConfig config;
  config.degrees.num_vertices = 2000;
  config.degrees.avg_degree = 8;
  config.degrees.alpha = 0.8;
  DegreeSortedGraph sorted = DegreeSort(GeneratePowerLawGraph(config));
  EngineOptions options;
  options.record_step_stats = true;
  options.dram_budget_bytes = 2000 * 6 * sizeof(Vid);  // 2000 walkers/episode
  FlashMobEngine engine(sorted.graph, options);
  WalkSpec spec = DeepWalkSpec(sorted.graph.num_vertices(), /*steps=*/12);
  spec.num_walkers = 6000;
  spec.keep_paths = false;
  WalkResult result = engine.Run(spec);
  const WalkStats& stats = result.stats;
  ASSERT_EQ(stats.episodes, 3u);
  ASSERT_EQ(stats.step_records.size(), 36u);

  const std::vector<TracePhase> phases = {
      {"load \"edges.txt\"", 0, 0.25}, {"run", 0.5, stats.times.Total()}};
  json::Value doc = json::ParseJson(WalkTraceJson(phases, 0.5, stats));
  std::vector<json::Value> spans = Spans(doc);
  EXPECT_EQ(doc.At("otherData").Num("exported_events"),
            static_cast<double>(spans.size()));

  // A name with quotes survives escaping and parsing.
  ASSERT_GE(spans.size(), 2u);
  EXPECT_EQ(spans[0].Str("cat"), "phase");
  EXPECT_EQ(spans[0].Str("name"), "load \"edges.txt\"");
  EXPECT_EQ(spans[0].Num("dur"), 250000.0);
  EXPECT_EQ(spans[1].Num("ts"), 500000.0);

  std::map<std::string, int> count;
  std::map<std::string, double> dur_us;
  for (const json::Value& e : spans) {
    const std::string key = e.Str("cat") + "/" + e.Str("name");
    ++count[key];
    dur_us[key] += e.Num("dur");
  }
  EXPECT_EQ(count["engine/episode"], 3);
  EXPECT_EQ(count["engine/scatter"], 36);
  EXPECT_EQ(count["shuffle/count"], 36);
  EXPECT_EQ(count["shuffle/scatter"], 36);
  EXPECT_EQ(count["engine/sample"], 36);
  EXPECT_EQ(count["engine/gather"], 36);

  // The engine spans last the run's own seconds: rounding to the nanosecond
  // is the only error, well inside 1 us per span.
  const double shuffle_spans_s =
      (dur_us["engine/scatter"] + dur_us["engine/gather"]) / 1e6;
  EXPECT_NEAR(shuffle_spans_s, stats.times.shuffle_s, 72 * 1e-6);
  EXPECT_NEAR(dur_us["engine/sample"] / 1e6, stats.times.sample_s, 36 * 1e-6);

  // Every step sits inside its episode and after the Run call, and its
  // stages follow one another.
  double episode_end_us = 0;
  double last_end_us = 0;
  for (const json::Value& e : spans) {
    const double ts = e.Num("ts");
    const double end = ts + e.Num("dur");
    if (e.Str("name") == "episode") {
      EXPECT_GE(ts, last_end_us - 2e-3);
      episode_end_us = end;
      continue;
    }
    if (e.Str("cat") == "phase") {
      continue;
    }
    EXPECT_GE(ts, 500000.0);
    EXPECT_LE(end, episode_end_us + 2e-3);
    if (e.Str("cat") == "engine") {
      EXPECT_GE(ts, last_end_us - 2e-3);
      last_end_us = end;
    }
  }
}

TEST(TraceTest, IdentityFreeRunHasNoGatherSpans) {
  PowerLawConfig config;
  config.degrees.num_vertices = 1000;
  config.degrees.avg_degree = 8;
  DegreeSortedGraph sorted = DegreeSort(GeneratePowerLawGraph(config));
  EngineOptions options;
  options.record_step_stats = true;
  FlashMobEngine engine(sorted.graph, options);
  WalkSpec spec = DeepWalkSpec(sorted.graph.num_vertices(), /*steps=*/5);
  spec.keep_paths = false;
  spec.track_identity = false;
  WalkResult result = engine.Run(spec);

  std::map<std::string, int> count;
  double scatter_us = 0;
  for (const json::Value& e :
       Spans(json::ParseJson(WalkTraceJson({}, 0, result.stats)))) {
    ++count[e.Str("name")];
    if (e.Str("cat") == "engine" && e.Str("name") == "scatter") {
      scatter_us += e.Num("dur");
    }
  }
  EXPECT_EQ(count["episode"], 1);
  EXPECT_EQ(count["sample"], 5);
  EXPECT_EQ(count.count("gather"), 0u);
  EXPECT_NEAR(scatter_us / 1e6, result.stats.times.shuffle_s, 5 * 1e-6);
}

}  // namespace
}  // namespace fm
