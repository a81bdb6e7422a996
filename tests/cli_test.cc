// End-to-end smoke tests of the fmwalk and fmmon CLI binaries (paths injected
// by CMake).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/util/json.h"

#ifndef FMWALK_PATH
#error "FMWALK_PATH must be defined by the build"
#endif
#ifndef FMMON_PATH
#error "FMMON_PATH must be defined by the build"
#endif

namespace {

namespace fs = std::filesystem;

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "fm_cli_test";
    fs::create_directories(dir_);
    // A small ring + chords graph with weights.
    std::ofstream out(dir_ / "edges.txt");
    out << "# demo graph\n";
    for (int v = 0; v < 100; ++v) {
      out << v << ' ' << (v + 1) % 100 << " 1.0\n";
      out << v << ' ' << (v + 7) % 100 << " 2.5\n";
    }
  }
  void TearDown() override { fs::remove_all(dir_); }

  int Run(const std::string& args) {
    std::string cmd = std::string(FMWALK_PATH) + " " + args + " 2>/dev/null";
    return std::system(cmd.c_str());
  }

  size_t LineCount(const fs::path& p) {
    std::ifstream in(p);
    size_t lines = 0;
    std::string line;
    while (std::getline(in, line)) {
      ++lines;
    }
    return lines;
  }

  fs::path dir_;
};

TEST_F(CliTest, DeepWalkWritesPaths) {
  auto out = dir_ / "walks.txt";
  int rc = Run("--graph=" + (dir_ / "edges.txt").string() +
               " --steps=5 --rounds=2 --out=" + out.string());
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(LineCount(out), 200u);  // rounds * |V| walks, one per line
}

TEST_F(CliTest, Node2VecPairsAndStats) {
  auto pairs = dir_ / "pairs.txt";
  int rc = Run("--graph=" + (dir_ / "edges.txt").string() +
               " --algo=node2vec --p=0.5 --q=2 --steps=4 --rounds=1 --stats "
               "--pairs=" + pairs.string());
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(LineCount(pairs), 400u);  // |V| walkers * 4 sampled edges
}

TEST_F(CliTest, WeightedWalkRuns) {
  int rc = Run("--graph=" + (dir_ / "edges.txt").string() +
               " --weighted --steps=3 --rounds=1");
  EXPECT_EQ(rc, 0);
}

TEST_F(CliTest, MetricsJsonSmoke) {
  // --metrics-json must exit 0 and emit a parseable fm-metrics-v1 document
  // even where perf_event_open is unavailable (the backend then reads "noop").
  auto metrics = dir_ / "metrics.json";
  int rc = Run("--graph=" + (dir_ / "edges.txt").string() +
               " --steps=4 --rounds=2 --metrics-json=" + metrics.string());
  ASSERT_EQ(rc, 0);
  ASSERT_TRUE(fs::exists(metrics));
  std::ifstream in(metrics);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  fm::json::Value doc = fm::json::ParseJson(
      text.substr(0, text.find_last_not_of('\n') + 1));
  EXPECT_EQ(doc.Str("schema"), "fm-metrics-v1");
  // Walk ran locally: backend is whatever the host supports, never "off".
  EXPECT_TRUE(doc.Str("backend") == "perf" || doc.Str("backend") == "noop");
  EXPECT_EQ(doc.Num("seed"), 1.0);
  EXPECT_EQ(doc.At("run").Num("total_steps"), 800.0);  // 2*|V| walkers * 4 steps
  // One step entry per (episode, step), each with per-stage counters.
  ASSERT_EQ(doc.At("steps").array.size(), 4u);
  for (const auto& step : doc.At("steps").array) {
    EXPECT_TRUE(step.Has("scatter_s"));
    EXPECT_TRUE(step.Has("sample_s"));
    EXPECT_TRUE(step.Has("gather_s"));
    EXPECT_TRUE(step.Has("scatter_pass1_s"));
    EXPECT_TRUE(step.Has("scatter_pass2_s"));
    EXPECT_TRUE(step.Has("gather_pass2_s"));
    EXPECT_TRUE(step.At("counters").Has("scatter"));
    EXPECT_TRUE(step.At("counters").At("sample").Has("llc_misses"));
  }
  // VP attribution covers all walker-steps.
  double share = 0;
  for (const auto& cls : doc.At("vp_classes").array) {
    share += cls.Num("walker_step_share");
  }
  EXPECT_NEAR(share, 1.0, 1e-4);  // %.6g rounding per class
}

TEST_F(CliTest, TelemetryJsonlAgreesWithMetricsAndFmmonSummarizes) {
  // A graph big enough that the run spans several 10ms snapshot intervals:
  // the file must hold >= 2 mid-run lines plus the final cumulative line,
  // and the final line's counters must equal fm-metrics-v1 exactly (the
  // single-source-of-truth contract).
  std::ofstream big(dir_ / "big.txt");
  for (int v = 0; v < 5000; ++v) {
    big << v << ' ' << (v + 1) % 5000 << '\n';
    big << v << ' ' << (v + 13) % 5000 << '\n';
  }
  big.close();
  auto jsonl = dir_ / "telemetry.jsonl";
  auto metrics = dir_ / "telemetry_metrics.json";
  int rc = Run("--graph=" + (dir_ / "big.txt").string() +
               " --steps=40 --rounds=20 --telemetry-jsonl=" + jsonl.string() +
               " --telemetry-interval-ms=10 --metrics-json=" +
               metrics.string());
  ASSERT_EQ(rc, 0);

  std::ifstream in(jsonl);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  ASSERT_GE(lines.size(), 3u) << "expected >= 2 mid-run snapshots + final";
  for (const std::string& line : lines) {
    EXPECT_EQ(fm::json::ParseJson(line).Str("schema"), "fm-telemetry-v1");
  }

  std::ifstream min(metrics);
  std::string mtext((std::istreambuf_iterator<char>(min)),
                    std::istreambuf_iterator<char>());
  fm::json::Value mdoc = fm::json::ParseJson(
      mtext.substr(0, mtext.find_last_not_of('\n') + 1));
  fm::json::Value last = fm::json::ParseJson(lines.back());
  EXPECT_EQ(last.At("counters").Num("fm.engine.walker_steps_total"),
            mdoc.At("run").Num("total_steps"));
  EXPECT_EQ(last.At("counters").Num("fm.engine.episodes_total"), 1.0);
  // Counters are cumulative: every snapshot is monotone in every counter.
  double prev_steps = 0;
  for (const std::string& line : lines) {
    double steps = fm::json::ParseJson(line).At("counters").Num(
        "fm.engine.walker_steps_total");
    EXPECT_GE(steps, prev_steps);
    prev_steps = steps;
  }

  // fmmon --summary over the same file renders percentiles for every
  // histogram the final snapshot carries.
  auto summary = dir_ / "summary.txt";
  int mon_rc = std::system((std::string(FMMON_PATH) + " --summary " +
                            jsonl.string() + " > " + summary.string() +
                            " 2>/dev/null")
                               .c_str());
  ASSERT_EQ(mon_rc, 0);
  std::ifstream sin(summary);
  std::string stext((std::istreambuf_iterator<char>(sin)),
                    std::istreambuf_iterator<char>());
  EXPECT_NE(stext.find("p99"), std::string::npos);
  for (const auto& [name, unused] : last.At("histograms").object) {
    EXPECT_NE(stext.find(name), std::string::npos) << name;
  }
}

TEST_F(CliTest, RejectsBadUsage) {
  EXPECT_NE(Run(""), 0);                        // no input
  EXPECT_NE(Run("--graph=a --csr=b"), 0);       // both inputs
  EXPECT_NE(Run("--graph=a --algo=simrank"), 0);  // unknown algo
  EXPECT_NE(Run("--graph=" + (dir_ / "missing.txt").string()), 0);
  EXPECT_NE(Run("--graph=a --no-such-flag"), 0);  // unknown argument
}

TEST_F(CliTest, UnusableInputIsAOneLineError) {
  // Inputs the engine would reject with a fatal check: fmwalk must exit 1
  // with one "error: ..." line instead of aborting.
  std::ofstream(dir_ / "empty.txt").close();
  std::ofstream unweighted(dir_ / "unweighted.txt");
  for (int v = 0; v < 50; ++v) {
    unweighted << v << ' ' << (v + 1) % 50 << '\n';
  }
  unweighted.close();
  const std::string cases[] = {
      "--graph=" + (dir_ / "empty.txt").string(),
      "--graph=" + (dir_ / "unweighted.txt").string() + " --weighted",
      "--graph=" + (dir_ / "edges.txt").string() + " --weighted --algo=node2vec",
  };
  const fs::path err = dir_ / "stderr.txt";
  for (const std::string& args : cases) {
    int rc = std::system((std::string(FMWALK_PATH) + " " + args + " 2>" +
                          err.string())
                             .c_str());
    ASSERT_TRUE(WIFEXITED(rc)) << args;
    EXPECT_EQ(WEXITSTATUS(rc), 1) << args;
    std::ifstream in(err);
    std::vector<std::string> errors;
    for (std::string line; std::getline(in, line);) {
      if (line.rfind("error: ", 0) == 0) {
        errors.push_back(line);
      }
    }
    EXPECT_EQ(errors.size(), 1u) << args;
  }
}

}  // namespace
