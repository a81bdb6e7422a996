// perf_counters + MetricsExport: open/read/close lifecycle through an injected
// syscall shim (no real PMU needed), the graceful-degradation contract
// (EACCES/ENOSYS -> inactive groups, "noop" backend, all-zero reads, never a
// failure), CounterSample arithmetic, and JSON round-trips of both metrics
// schemas through the shared parser in src/util/json.h.
#include "src/util/perf_counters.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>
#endif

#include "src/core/metrics.h"
#include "src/graph/degree_sort.h"
#include "src/graph/graph_builder.h"
#include "src/util/json.h"

namespace fm {
namespace {

// Restores the real syscall no matter how a test exits.
struct ShimGuard {
  explicit ShimGuard(PerfEventOpenFn fn) { SetPerfEventOpenForTest(fn); }
  ~ShimGuard() { SetPerfEventOpenForTest(nullptr); }
};

long FailWithEacces(void*, int32_t, int32_t, int32_t, unsigned long) {
  errno = EACCES;
  return -1;
}

long FailWithEnosys(void*, int32_t, int32_t, int32_t, unsigned long) {
  errno = ENOSYS;
  return -1;
}

TEST(CounterSampleTest, AccessorsMapToSlots) {
  CounterSample s;
  for (int i = 0; i < kNumPerfCounters; ++i) {
    s.values[i] = 100 + i;
  }
  EXPECT_EQ(s.cycles(), 100u);
  EXPECT_EQ(s.instructions(), 101u);
  EXPECT_EQ(s.llc_loads(), 102u);
  EXPECT_EQ(s.llc_misses(), 103u);
  EXPECT_EQ(s.l1d_misses(), 104u);
  EXPECT_EQ(s.dtlb_misses(), 105u);
}

TEST(CounterSampleTest, NamesAreStableJsonKeys) {
  const char* expected[kNumPerfCounters] = {"cycles",     "instructions",
                                            "llc_loads",  "llc_misses",
                                            "l1d_misses", "dtlb_misses"};
  for (int i = 0; i < kNumPerfCounters; ++i) {
    EXPECT_STREQ(PerfCounterName(i), expected[i]);
  }
  EXPECT_STREQ(PerfCounterName(-1), "unknown");
  EXPECT_STREQ(PerfCounterName(kNumPerfCounters), "unknown");
}

TEST(CounterSampleTest, ArithmeticAndDerivedRates) {
  CounterSample a, b;
  a.values[0] = 1000;  // cycles
  a.values[1] = 2500;  // instructions
  a.values[2] = 80;    // llc loads
  a.values[3] = 20;    // llc misses
  b.values[0] = 400;
  b.values[1] = 500;

  CounterSample sum = a;
  sum += b;
  EXPECT_EQ(sum.cycles(), 1400u);
  EXPECT_EQ(sum.instructions(), 3000u);

  CounterSample delta = a - b;
  EXPECT_EQ(delta.cycles(), 600u);
  EXPECT_EQ(delta.instructions(), 2000u);

  // Saturating difference: a multiplex-scaling wobble must clamp to 0, not
  // wrap to 2^64 - epsilon.
  CounterSample wobble = b - a;
  EXPECT_EQ(wobble.cycles(), 0u);
  EXPECT_EQ(wobble.instructions(), 0u);

  EXPECT_DOUBLE_EQ(a.Ipc(), 2.5);
  EXPECT_DOUBLE_EQ(a.LlcMissRatio(), 0.25);
  CounterSample zero;
  EXPECT_TRUE(zero.AllZero());
  EXPECT_DOUBLE_EQ(zero.Ipc(), 0.0);       // no division by zero
  EXPECT_DOUBLE_EQ(zero.LlcMissRatio(), 0.0);
  EXPECT_FALSE(a.AllZero());
}

TEST(PerfCounterGroupTest, DefaultConstructedIsInactiveAndReadsZero) {
  PerfCounterGroup group;
  EXPECT_FALSE(group.active());
  EXPECT_EQ(group.num_open(), 0);
  EXPECT_TRUE(group.Read().AllZero());
}

TEST(PerfCounterGroupTest, EaccesDegradesToInactive) {
  // perf_event_paranoid forbidding the open must not abort anything: the
  // group comes back inactive and usable.
  ShimGuard guard(&FailWithEacces);
  PerfCounterGroup group = PerfCounterGroup::OpenForThread(0);
  EXPECT_FALSE(group.active());
  EXPECT_TRUE(group.Read().AllZero());
}

TEST(PerfCounterGroupTest, EnosysDegradesToInactive) {
  // Seccomp'd containers return ENOSYS; same contract.
  ShimGuard guard(&FailWithEnosys);
  PerfCounterGroup group = PerfCounterGroup::OpenForThread(0);
  EXPECT_FALSE(group.active());
  EXPECT_TRUE(group.Read().AllZero());
}

TEST(StagePerfMonitorTest, NoopBackendWhenNothingOpens) {
  ShimGuard guard(&FailWithEacces);
  StagePerfMonitor monitor(std::vector<int32_t>{1234, 5678});
  EXPECT_FALSE(monitor.active());
  EXPECT_STREQ(monitor.backend(), "noop");
  EXPECT_TRUE(monitor.ReadTotal().AllZero());
}

#if defined(__linux__)

int CountOpenFds() {
  int count = 0;
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) {
    return -1;
  }
  while (readdir(dir) != nullptr) {
    ++count;
  }
  closedir(dir);
  return count;
}

// Shim that hands out fds onto a fixture file containing one
// {value, time_enabled, time_running} record — read() then behaves exactly
// like a perf counter fd, so the whole open/read/scale/close path runs
// without PMU hardware.
std::string g_fixture_path;

long OpenFixtureFd(void*, int32_t, int32_t, int32_t, unsigned long) {
  int fd = open(g_fixture_path.c_str(), O_RDONLY);
  if (fd < 0) {
    errno = ENOENT;
    return -1;
  }
  return fd;
}

class FixtureFdTest : public ::testing::Test {
 protected:
  void WriteFixture(uint64_t value, uint64_t enabled, uint64_t running) {
    g_fixture_path =
        ::testing::TempDir() + "/perf_counters_fixture_" +
        std::to_string(getpid()) + ".bin";
    std::FILE* f = std::fopen(g_fixture_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    uint64_t buf[3] = {value, enabled, running};
    ASSERT_EQ(std::fwrite(buf, sizeof(uint64_t), 3, f), 3u);
    std::fclose(f);
  }

  void TearDown() override {
    if (!g_fixture_path.empty()) {
      std::remove(g_fixture_path.c_str());
      g_fixture_path.clear();
    }
  }
};

TEST_F(FixtureFdTest, OpenReadCloseLifecycle) {
  WriteFixture(/*value=*/7777, /*enabled=*/100, /*running=*/100);
  int fds_before = CountOpenFds();
  {
    ShimGuard guard(&OpenFixtureFd);
    PerfCounterGroup group = PerfCounterGroup::OpenForThread(0);
    ASSERT_TRUE(group.active());
    EXPECT_EQ(group.num_open(), kNumPerfCounters);
    CounterSample sample = group.Read();
    for (int i = 0; i < kNumPerfCounters; ++i) {
      EXPECT_EQ(sample.values[i], 7777u) << PerfCounterName(i);
    }
    EXPECT_GT(CountOpenFds(), fds_before);
  }
  // RAII close: every fd the shim handed out must be returned.
  EXPECT_EQ(CountOpenFds(), fds_before);
}

TEST_F(FixtureFdTest, MultiplexedValuesAreScaled) {
  // The event ran only 1/4 of the enabled window: reads must extrapolate
  // value * enabled/running (the standard perf convention).
  WriteFixture(/*value=*/1000, /*enabled=*/400, /*running=*/100);
  ShimGuard guard(&OpenFixtureFd);
  PerfCounterGroup group = PerfCounterGroup::OpenForThread(0);
  ASSERT_TRUE(group.active());
  EXPECT_EQ(group.Read().cycles(), 4000u);
}

TEST_F(FixtureFdTest, MoveTransfersOwnership) {
  WriteFixture(1, 10, 10);
  int fds_before = CountOpenFds();
  {
    ShimGuard guard(&OpenFixtureFd);
    PerfCounterGroup a = PerfCounterGroup::OpenForThread(0);
    ASSERT_TRUE(a.active());
    PerfCounterGroup b = std::move(a);
    EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move): moved-from state is specified
    EXPECT_TRUE(b.active());
    a = std::move(b);
    EXPECT_TRUE(a.active());
  }
  EXPECT_EQ(CountOpenFds(), fds_before);  // no double-close, no leak
}

TEST_F(FixtureFdTest, StagePerfMonitorSumsThreads) {
  WriteFixture(50, 10, 10);
  ShimGuard guard(&OpenFixtureFd);
  // Coordinator + two "workers" (the shim ignores the tid).
  StagePerfMonitor monitor(std::vector<int32_t>{111, 222});
  ASSERT_TRUE(monitor.active());
  EXPECT_STREQ(monitor.backend(), "perf");
  EXPECT_EQ(monitor.ReadTotal().cycles(), 150u);
}

#endif  // defined(__linux__)

// ---- MetricsExport round-trips ---------------------------------------------

WalkStats FabricatedStats() {
  WalkStats stats;
  stats.total_steps = 1000;
  stats.slots_scanned = 1500;
  stats.episodes = 2;
  stats.walker_density = 0.125;
  stats.times.sample_s = 0.5;
  stats.times.shuffle_s = 0.25;
  stats.times.other_s = 0.25;
  stats.node2vec = {.proposals = 70, .pre_decided = 40, .checks = 30};
  for (uint64_t ns : {1000, 1100, 1200, 5000}) {
    stats.step_ns.Observe(ns);
  }
  stats.perf_backend = "perf";
  stats.counters.scatter.values[0] = 100;
  stats.counters.sample.values[0] = 800;   // cycles
  stats.counters.sample.values[1] = 1600;  // instructions
  stats.counters.sample.values[2] = 64;    // llc loads
  stats.counters.sample.values[3] = 16;    // llc misses
  stats.counters.gather.values[0] = 100;
  StepStageRecord rec;
  rec.episode = 1;
  rec.step = 3;
  rec.scatter_s = 0.01;
  rec.sample_s = 0.02;
  rec.gather_s = 0.03;
  rec.live_walkers = 42;
  rec.scanned = 64;
  rec.sample_counters.values[3] = 8;
  stats.step_records.push_back(rec);
  return stats;
}

TEST(MetricsExportTest, WalkMetricsJsonRoundTrips) {
  MetricsMeta meta;
  meta.tool = "unit-test";
  meta.graph = "path/with \"quotes\"\nand\\slashes";
  meta.algorithm = "deepwalk";
  meta.seed = 1234567890123ULL;
  meta.threads = 8;
  WalkStats stats = FabricatedStats();

  json::Value doc = json::ParseJson(WalkMetricsJson(meta, stats, nullptr));
  EXPECT_EQ(doc.Str("schema"), "fm-metrics-v1");
  EXPECT_EQ(doc.Str("backend"), "perf");
  EXPECT_EQ(doc.Str("tool"), "unit-test");
  // Escaping round-trip: the parser must recover the raw path.
  EXPECT_EQ(doc.Str("graph"), meta.graph);
  EXPECT_EQ(doc.Num("seed"), 1234567890123.0);
  EXPECT_EQ(doc.Num("threads"), 8.0);

  const json::Value& run = doc.At("run");
  EXPECT_EQ(run.Num("total_steps"), 1000.0);
  EXPECT_EQ(run.Num("slots_scanned"), 1500.0);
  EXPECT_EQ(run.Num("episodes"), 2.0);
  EXPECT_DOUBLE_EQ(run.At("seconds").Num("sample"), 0.5);
  EXPECT_EQ(run.At("node2vec").Num("proposals"), 70.0);
  EXPECT_EQ(run.At("node2vec").Num("pre_decided"), 40.0);
  EXPECT_EQ(run.At("node2vec").Num("checks"), 30.0);
  const json::Value& step_ns = run.At("step_ns");
  EXPECT_EQ(step_ns.Num("count"), 4.0);
  EXPECT_EQ(step_ns.Num("sum"), 8300.0);
  const std::pair<const char*, double> percentiles[] = {
      {"p50", 50}, {"p90", 90}, {"p99", 99}, {"p999", 99.9}};
  for (const auto& [key, p] : percentiles) {
    // %.6g keeps six significant digits.
    const double want = stats.step_ns.Percentile(p);
    EXPECT_GT(want, 0.0) << key;
    EXPECT_NEAR(step_ns.Num(key), want, want * 1e-5) << key;
  }

  const json::Value& counters = doc.At("counters");
  EXPECT_EQ(counters.At("sample").Num("cycles"), 800.0);
  EXPECT_EQ(counters.At("sample").Num("llc_misses"), 16.0);
  const json::Value& derived = counters.At("derived");
  // Totals: cycles 100+800+100, instructions 1600 -> IPC 1.6.
  EXPECT_DOUBLE_EQ(derived.Num("ipc"), 1.6);
  EXPECT_DOUBLE_EQ(derived.Num("llc_miss_ratio"), 0.25);
  EXPECT_DOUBLE_EQ(derived.Num("cycles_per_step"), 1.0);

  const json::Value& steps = doc.At("steps");
  ASSERT_EQ(steps.array.size(), 1u);
  EXPECT_EQ(steps.array[0].Num("episode"), 1.0);
  EXPECT_EQ(steps.array[0].Num("step"), 3.0);
  EXPECT_EQ(steps.array[0].Num("live_walkers"), 42.0);
  EXPECT_EQ(steps.array[0].Num("scanned"), 64.0);
  EXPECT_EQ(steps.array[0].At("counters").At("sample").Num("llc_misses"), 8.0);
  // No plan given: vp_classes must be present and empty, not missing.
  EXPECT_TRUE(doc.At("vp_classes").array.empty());
}

TEST(MetricsExportTest, BackendDefaultsToOffWhenCollectionDisabled) {
  WalkStats stats;
  json::Value doc =
      json::ParseJson(WalkMetricsJson(MetricsMeta{}, stats, nullptr));
  EXPECT_EQ(doc.Str("backend"), "off");
  EXPECT_EQ(doc.At("counters").At("derived").Num("ipc"), 0.0);
}

TEST(MetricsExportTest, BenchTrajectoryRoundTrips) {
  BenchTrajectory traj("unit_bench");
  traj.set_backend("noop");
  traj.Add("fig1a/flashmob", "YT", 37.5, "ns/step");
  traj.Add("fig1a/knightking", "YT", 210.0, "ns/step");
  CounterSample sample;
  sample.values[0] = 12345;
  traj.AddCounters("fig1a/flashmob/YT", sample);

  json::Value doc = json::ParseJson(traj.ToJson());
  EXPECT_EQ(doc.Str("schema"), "fm-bench-trajectory-v1");
  EXPECT_EQ(doc.Str("bench"), "unit_bench");
  EXPECT_EQ(doc.Str("backend"), "noop");
  ASSERT_EQ(doc.At("points").array.size(), 2u);
  EXPECT_EQ(doc.At("points").array[0].Str("series"), "fig1a/flashmob");
  EXPECT_EQ(doc.At("points").array[0].Str("point"), "YT");
  EXPECT_DOUBLE_EQ(doc.At("points").array[0].Num("value"), 37.5);
  EXPECT_EQ(doc.At("points").array[0].Str("unit"), "ns/step");
  ASSERT_EQ(doc.At("counters").array.size(), 1u);
  EXPECT_EQ(doc.At("counters").array[0].At("sample").Num("cycles"), 12345.0);
}

TEST(MetricsExportTest, WriteReadFileRoundTrip) {
  std::string path = ::testing::TempDir() + "/metrics_roundtrip.json";
  MetricsMeta meta;
  meta.tool = "unit-test";
  ASSERT_TRUE(WriteWalkMetricsJson(path, meta, FabricatedStats(), nullptr));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, got);
  }
  std::fclose(f);
  std::remove(path.c_str());
  json::Value doc = json::ParseJson(
      text.substr(0, text.find_last_not_of('\n') + 1));
  EXPECT_EQ(doc.Str("schema"), "fm-metrics-v1");
}

TEST(MetricsExportTest, WriteToBadPathReturnsFalse) {
  EXPECT_FALSE(WriteWalkMetricsJson("/nonexistent-dir/x/y.json", MetricsMeta{},
                                    WalkStats{}, nullptr));
  EXPECT_FALSE(BenchTrajectory("b").WriteJson("/nonexistent-dir/x/y.json"));
}

TEST(MetricsExportTest, AggregateVpClassesSharesSumToOne) {
  // Hand-build a two-VP plan via BuildUniform on a tiny graph, then check the
  // class aggregation arithmetic.
  GraphBuilder b(128);
  for (Vid v = 0; v < 128; ++v) {
    b.AddEdge(v, (v + 1) % 128);
    b.AddEdge(v, (v + 2) % 128);
  }
  CsrGraph g = DegreeSort(b.Build()).graph;
  PartitionPlan plan = PartitionPlan::BuildUniform(g, 2, SamplePolicy::kDS);
  WalkStats stats;
  stats.vp_walker_steps.assign(plan.num_vps(), 0);
  for (uint32_t i = 0; i < plan.num_vps(); ++i) {
    stats.vp_walker_steps[i] = 100 * (i + 1);
  }
  auto classes = AggregateVpClasses(&plan, stats);
  ASSERT_FALSE(classes.empty());
  double share = 0;
  uint64_t steps = 0;
  uint32_t vps = 0;
  for (const VpClassMetrics& cls : classes) {
    share += cls.walker_step_share;
    steps += cls.walker_steps;
    vps += cls.vps;
  }
  EXPECT_NEAR(share, 1.0, 1e-9);
  EXPECT_EQ(vps, plan.num_vps());
  uint64_t expected_steps = 0;
  for (uint64_t s : stats.vp_walker_steps) {
    expected_steps += s;
  }
  EXPECT_EQ(steps, expected_steps);
  // Size mismatch (stale stats): defined to return empty, not crash.
  stats.vp_walker_steps.pop_back();
  EXPECT_TRUE(AggregateVpClasses(&plan, stats).empty());
}

}  // namespace
}  // namespace fm
