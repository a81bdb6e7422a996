// Span tracer (src/util/trace.h): disabled-mode no-op, span nesting, ring
// overflow drop-oldest accounting, multi-thread emission count determinism,
// exporter escaping/round-trip through the shared JSON parser, the progress
// heartbeat, and an end-to-end engine run whose "engine" category span totals
// must agree with the engine's own stage seconds (the two views come from the
// same steady clock; if they diverge the trace is lying).
#include "src/util/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/core/algorithms/deepwalk.h"
#include "src/core/walk_observer.h"
#include "src/gen/powerlaw_graph.h"
#include "src/graph/degree_sort.h"
#include "src/util/json.h"
#include "src/util/thread_pool.h"

namespace fm {
namespace {

// Every test resets the global tracer on entry and exit so ordering between
// tests (and the engine tests in other binaries) cannot leak rings.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { Tracer::Get().Reset(); }
  void TearDown() override { Tracer::Get().Reset(); }
};

json::Value ParseTrace() {
  return json::ParseJson(Tracer::Get().ExportJson());
}

// Collects the "X" spans from an exported document.
std::vector<json::Value> Spans(const json::Value& doc) {
  std::vector<json::Value> spans;
  for (const json::Value& e : doc.At("traceEvents").array) {
    if (e.Str("ph") == "X") {
      spans.push_back(e);
    }
  }
  return spans;
}

TEST_F(TraceTest, DisabledModeRecordsNothing) {
  ASSERT_FALSE(Tracer::enabled());
  {
    FM_TRACE_SPAN("test", "noop");
    TraceSpan named("test", "noop2");
    named.Arg("k", 1);
  }
  EXPECT_EQ(Tracer::Get().TotalEvents(), 0u);
  EXPECT_EQ(Tracer::Get().TotalDropped(), 0u);
  // No thread registered a ring either.
  json::Value doc = ParseTrace();
  EXPECT_EQ(doc.At("otherData").Num("threads"), 0);
  EXPECT_TRUE(Spans(doc).empty());
}

TEST_F(TraceTest, SpanNestingAndArgs) {
  Tracer::Get().Enable();
  {
    TraceSpan outer("test", "outer");
    outer.Arg("episode", 7);
    {
      FM_TRACE_SPAN("test", "inner");
    }
  }
  Tracer::Get().Disable();

  json::Value doc = ParseTrace();
  std::vector<json::Value> spans = Spans(doc);
  ASSERT_EQ(spans.size(), 2u);
  // Spans close inner-first, so the inner span is pushed before the outer.
  EXPECT_EQ(spans[0].Str("name"), "inner");
  EXPECT_EQ(spans[1].Str("name"), "outer");
  EXPECT_EQ(spans[1].Str("cat"), "test");
  EXPECT_EQ(spans[1].At("args").Num("episode"), 7);
  // Outer's interval contains inner's.
  double outer_ts = spans[1].Num("ts");
  double outer_end = outer_ts + spans[1].Num("dur");
  double inner_ts = spans[0].Num("ts");
  double inner_end = inner_ts + spans[0].Num("dur");
  EXPECT_LE(outer_ts, inner_ts);
  EXPECT_GE(outer_end, inner_end);
}

TEST_F(TraceTest, RingOverflowDropsOldest) {
  constexpr size_t kCapacity = 16;
  constexpr uint64_t kPushes = 100;
  Tracer::Get().Enable(kCapacity);
  TraceRingBuffer* ring = Tracer::Get().CurrentBuffer();
  ASSERT_NE(ring, nullptr);
  for (uint64_t i = 0; i < kPushes; ++i) {
    TraceEvent e;
    e.category = "test";
    e.name = "evt";
    e.start_ns = i;  // encode the sequence number in the timestamp
    ring->Push(e);
  }
  Tracer::Get().Disable();

  EXPECT_EQ(ring->pushed(), kPushes);
  EXPECT_EQ(ring->dropped(), kPushes - kCapacity);
  EXPECT_EQ(Tracer::Get().TotalEvents(), kPushes);
  EXPECT_EQ(Tracer::Get().TotalDropped(), kPushes - kCapacity);

  // The survivors are exactly the newest kCapacity events, oldest-first.
  std::vector<uint64_t> seq;
  ring->ForEach([&](const TraceEvent& e) { seq.push_back(e.start_ns); });
  ASSERT_EQ(seq.size(), kCapacity);
  for (size_t i = 0; i < kCapacity; ++i) {
    EXPECT_EQ(seq[i], kPushes - kCapacity + i);
  }

  json::Value doc = ParseTrace();
  EXPECT_EQ(doc.At("otherData").Num("dropped_events"),
            static_cast<double>(kPushes - kCapacity));
  EXPECT_EQ(doc.At("otherData").Num("exported_events"),
            static_cast<double>(kCapacity));
}

TEST_F(TraceTest, MultiThreadEmissionCountIsDeterministic) {
  constexpr uint64_t kTasks = 500;
  ThreadPool pool(4);
  Tracer::Get().Enable();
  pool.ParallelFor(kTasks, [](uint64_t task, uint32_t) {
    TraceSpan span("mt", "task");
    span.Arg("task", task);
  });
  Tracer::Get().Disable();

  // Every task emitted exactly one span, whatever the schedule; the pool's
  // barrier means all pushes happened-before this read.
  EXPECT_EQ(Tracer::Get().TotalEvents(), kTasks);
  EXPECT_EQ(Tracer::Get().TotalDropped(), 0u);
  json::Value doc = ParseTrace();
  EXPECT_EQ(Spans(doc).size(), kTasks);
  // Workers announced themselves (thread_pool.cc names them fm-worker-N), so
  // at most pool.thread_count() rings exist.
  EXPECT_LE(doc.At("otherData").Num("threads"),
            static_cast<double>(pool.thread_count()));
}

TEST_F(TraceTest, ExporterEscapesThreadNamesAndRoundTrips) {
  Tracer::Get().Enable();
  Tracer::SetThisThreadName("evil \"name\" \\ with\ncontrol\x01chars");
  FM_TRACE_SPAN("test", "one");
  Tracer::Get().Disable();

  // The exported document must parse, and the name must round-trip exactly.
  json::Value doc = ParseTrace();
  bool found = false;
  for (const json::Value& e : doc.At("traceEvents").array) {
    if (e.Str("ph") == "M" && e.Str("name") == "thread_name") {
      EXPECT_EQ(e.At("args").Str("name"),
                "evil \"name\" \\ with\ncontrol\x01chars");
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // Restore a sane cached name for later tests in this thread.
  Tracer::SetThisThreadName("main");
}

TEST_F(TraceTest, ProgressReporterPrintsAndCounts) {
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

TEST_F(TraceTest, EngineRunAgreesWithStageSeconds) {
  PowerLawConfig config;
  config.degrees.num_vertices = 2000;
  config.degrees.avg_degree = 8;
  config.degrees.alpha = 0.8;
  DegreeSortedGraph sorted = DegreeSort(GeneratePowerLawGraph(config));

  Tracer::Get().Enable();
  Tracer::SetThisThreadName("main");
  EngineOptions options;
  options.record_step_stats = true;
  std::FILE* progress_out = std::tmpfile();
  ASSERT_NE(progress_out, nullptr);
  ProgressReporter progress(/*interval_s=*/1e9, progress_out);
  FlashMobEngine engine(sorted.graph, options);
  WalkSpec spec = DeepWalkSpec(sorted.graph.num_vertices(), /*steps=*/12,
                               /*rounds=*/2);
  WalkResult result = engine.Run(spec, {&progress});
  Tracer::Get().Disable();

  ASSERT_GT(result.stats.total_steps, 0u);
  json::Value doc = ParseTrace();

  // All instrumented categories fired.
  double scatter_us = 0, sample_us = 0, gather_us = 0;
  std::set<std::string> cats;
  for (const json::Value& e : Spans(doc)) {
    cats.insert(e.Str("cat"));
    if (e.Str("cat") != "engine") {
      continue;
    }
    if (e.Str("name") == "scatter") {
      scatter_us += e.Num("dur");
    } else if (e.Str("name") == "sample") {
      sample_us += e.Num("dur");
    } else if (e.Str("name") == "gather") {
      gather_us += e.Num("dur");
    }
  }
  for (const char* cat : {"engine", "engine.vp", "shuffle", "plan"}) {
    EXPECT_TRUE(cats.count(cat)) << "missing category " << cat;
  }

  // The spans open before each stage's Timer starts and close after it is
  // read, so per-category sums must be >= the engine's stage seconds and —
  // with the span overhead being microseconds per step — within 5% (plus a
  // small absolute floor for very fast runs).
  double span_total_s = (scatter_us + sample_us + gather_us) / 1e6;
  double stage_total_s =
      result.stats.times.shuffle_s + result.stats.times.sample_s;
  EXPECT_GE(span_total_s, stage_total_s);
  EXPECT_LE(span_total_s, stage_total_s * 1.05 + 0.05)
      << "span total " << span_total_s << "s vs stage total " << stage_total_s
      << "s";

  // The heartbeat saw the run end.
  EXPECT_GE(progress.lines_printed(), 1u);
  std::fclose(progress_out);
}

}  // namespace
}  // namespace fm
