// End-to-end smoke tests of the fmwalk and fmgen CLI binaries and of the
// examples' error handling (paths injected by CMake).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/util/json.h"

#ifndef FMWALK_PATH
#error "FMWALK_PATH must be defined by the build"
#endif
#ifndef FMGEN_PATH
#error "FMGEN_PATH must be defined by the build"
#endif
#if !defined(QUICKSTART_PATH) || !defined(DEEPWALK_CORPUS_PATH) || \
    !defined(OUT_OF_CORE_WALK_PATH)
#error "the example paths must be defined by the build"
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

  // Runs `program` (fmwalk by default), expects it to exit with
  // `expected_exit`, and returns the stderr lines that start with "error: ".
  std::vector<std::string> ErrorLines(
      const std::string& args, int expected_exit,
      const std::string& program = FMWALK_PATH) {
    const fs::path err = dir_ / "stderr.txt";
    int rc = std::system(
        (program + " " + args + " >/dev/null 2>" + err.string()).c_str());
    EXPECT_TRUE(WIFEXITED(rc)) << program << ' ' << args;
    EXPECT_EQ(WEXITSTATUS(rc), expected_exit) << program << ' ' << args;
    std::ifstream in(err);
    std::vector<std::string> errors;
    for (std::string line; std::getline(in, line);) {
      if (line.rfind("error: ", 0) == 0) {
        errors.push_back(line);
      }
    }
    return errors;
  }

  // Writes a binary CSR file in the SaveCsrBinary layout straight from its
  // arrays, so a test can hand fmwalk a payload no writer would produce.
  std::string WriteCsr(const std::string& name,
                       const std::vector<uint64_t>& offsets,
                       const std::vector<uint32_t>& edges,
                       const std::vector<float>& weights = {}) {
    const uint64_t header[3] = {
        weights.empty() ? 0x464D435352303031ULL : 0x464D435352303032ULL,
        offsets.size() - 1, edges.size()};
    const fs::path path = dir_ / name;
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
    out.write(reinterpret_cast<const char*>(offsets.data()),
              static_cast<std::streamsize>(offsets.size() * sizeof(uint64_t)));
    out.write(reinterpret_cast<const char*>(edges.data()),
              static_cast<std::streamsize>(edges.size() * sizeof(uint32_t)));
    out.write(reinterpret_cast<const char*>(weights.data()),
              static_cast<std::streamsize>(weights.size() * sizeof(float)));
    return path.string();
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

  // Reads a whole JSON document written by a CLI run.
  fm::json::Value ReadJson(const fs::path& p) {
    std::ifstream in(p);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    return fm::json::ParseJson(
        text.substr(0, text.find_last_not_of('\n') + 1));
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
  auto stdout_path = dir_ / "stdout.txt";
  int rc = Run("--graph=" + (dir_ / "edges.txt").string() +
               " --algo=node2vec --p=0.5 --q=2 --steps=4 --rounds=1 --stats "
               "--pairs=" + pairs.string() + " >" + stdout_path.string());
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(LineCount(pairs), 400u);  // |V| walkers * 4 sampled edges
  // --stats prints one row per degree bucket under a "bucket" header; the
  // visits% column covers every visit, so it sums to 100 up to the rounding
  // of four one-decimal figures (an empty count vector prints 0.0%).
  std::ifstream in(stdout_path);
  std::string line;
  while (std::getline(in, line) && line.rfind("bucket", 0) != 0) {
  }
  ASSERT_EQ(line.rfind("bucket", 0), 0u) << "no --stats table";
  double visits_sum = 0;
  int rows = 0;
  for (; rows < 4 && std::getline(in, line); ++rows) {
    std::istringstream row(line);
    std::string name, edges_pct, visits_pct;
    double avg_degree = 0;
    ASSERT_TRUE(row >> name >> avg_degree >> edges_pct >> visits_pct) << line;
    ASSERT_EQ(visits_pct.back(), '%') << line;
    visits_sum += std::stod(visits_pct);
  }
  EXPECT_EQ(rows, 4);
  EXPECT_NEAR(visits_sum, 100.0, 0.2);
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
  fm::json::Value doc = ReadJson(metrics);
  EXPECT_EQ(doc.Str("schema"), "fm-metrics-v1");
  // Walk ran locally: backend is whatever the host supports, never "off".
  EXPECT_TRUE(doc.Str("backend") == "perf" || doc.Str("backend") == "noop");
  EXPECT_EQ(doc.Num("seed"), 1.0);
  EXPECT_EQ(doc.At("run").Num("total_steps"), 800.0);  // 2*|V| walkers * 4 steps
  // No walker dies, so every scanned slot is live.
  EXPECT_EQ(doc.At("run").Num("slots_scanned"), 800.0);
  // One step entry per (episode, step), each with per-stage counters, and
  // one per-step wall-time sample each.
  ASSERT_EQ(doc.At("steps").array.size(), 4u);
  const fm::json::Value& step_ns = doc.At("run").At("step_ns");
  EXPECT_EQ(step_ns.Num("count"),
            static_cast<double>(doc.At("steps").array.size()));
  EXPECT_LE(step_ns.Num("p50"), step_ns.Num("p90"));
  EXPECT_LE(step_ns.Num("p90"), step_ns.Num("p99"));
  EXPECT_LE(step_ns.Num("p99"), step_ns.Num("p999"));
  for (const auto& step : doc.At("steps").array) {
    EXPECT_TRUE(step.Has("scatter_s"));
    EXPECT_TRUE(step.Has("sample_s"));
    EXPECT_TRUE(step.Has("gather_s"));
    EXPECT_TRUE(step.Has("scatter_pass1_s"));
    EXPECT_TRUE(step.Has("scatter_pass2_s"));
    EXPECT_TRUE(step.Has("gather_pass2_s"));
    EXPECT_EQ(step.Num("scanned"), step.Num("live_walkers"));
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

TEST_F(CliTest, TraceJsonIsChromeTraceEventsRenderedFromTheRun) {
  // --trace-json renders the run's WalkStats: complete ("X") spans on one
  // named track, the fmwalk phases, and engine spans that sum to the
  // fm-metrics-v1 seconds of the same run.
  auto trace = dir_ / "walk.trace.json";
  auto metrics = dir_ / "trace_metrics.json";
  ASSERT_EQ(Run("--graph=" + (dir_ / "edges.txt").string() +
                " --steps=6 --rounds=3 --trace-json=" + trace.string() +
                " --metrics-json=" + metrics.string()),
            0);
  fm::json::Value doc = ReadJson(trace);
  size_t spans = 0;
  size_t thread_names = 0;
  double shuffle_us = 0;
  double sample_us = 0;
  std::vector<std::string> phases;
  for (const fm::json::Value& e : doc.At("traceEvents").array) {
    if (e.Str("ph") == "M") {
      thread_names += e.Str("name") == "thread_name";
      continue;
    }
    ASSERT_EQ(e.Str("ph"), "X");
    for (const char* key : {"pid", "tid", "cat", "name", "ts", "dur"}) {
      EXPECT_TRUE(e.Has(key)) << key;
    }
    ++spans;
    const std::string name = e.Str("name");
    if (e.Str("cat") == "phase") {
      phases.push_back(name);
    } else if (e.Str("cat") == "engine" &&
               (name == "scatter" || name == "gather")) {
      shuffle_us += e.Num("dur");
    } else if (e.Str("cat") == "engine" && name == "sample") {
      sample_us += e.Num("dur");
    }
  }
  EXPECT_EQ(thread_names, 1u);
  EXPECT_EQ(doc.At("otherData").Num("exported_events"),
            static_cast<double>(spans));
  EXPECT_EQ(phases, (std::vector<std::string>{"load", "degree_sort", "run",
                                              "output"}));
  // fm-metrics-v1 prints 6 significant digits; each span rounds to 1 ns.
  fm::json::Value seconds = ReadJson(metrics).At("run").At("seconds");
  EXPECT_NEAR(shuffle_us / 1e6, seconds.Num("shuffle"),
              seconds.Num("shuffle") * 1e-5 + 12 * 1e-6);
  EXPECT_NEAR(sample_us / 1e6, seconds.Num("sample"),
              seconds.Num("sample") * 1e-5 + 6 * 1e-6);
}

TEST_F(CliTest, ExamplesRejectBadInputWithOneErrorLine) {
  // An unreadable input is one "error:" line and exit 1, not an uncaught
  // exception.
  const std::string missing = (dir_ / "missing.txt").string();
  const fs::path garbage = dir_ / "garbage.csr";
  std::ofstream(garbage) << std::string(100, 'x');
  EXPECT_EQ(ErrorLines(missing, 1, QUICKSTART_PATH).size(), 1u);
  EXPECT_EQ(ErrorLines(missing + " " + (dir_ / "corpus.bin").string(), 1,
                       DEEPWALK_CORPUS_PATH)
                .size(),
            1u);
  EXPECT_EQ(ErrorLines(garbage.string(), 1, OUT_OF_CORE_WALK_PATH).size(), 1u);
}

TEST_F(CliTest, RejectsBadUsage) {
  EXPECT_NE(Run(""), 0);                        // no input
  EXPECT_NE(Run("--graph=a --csr=b"), 0);       // both inputs
  EXPECT_NE(Run("--graph=a --algo=simrank"), 0);  // unknown algo
  EXPECT_NE(Run("--graph=" + (dir_ / "missing.txt").string()), 0);
  EXPECT_NE(Run("--graph=a --no-such-flag"), 0);  // unknown argument
}

TEST_F(CliTest, TelemetryFlagsAreUnknownArguments) {
  // The JSONL telemetry stream and its two --telemetry-* flags are gone;
  // --progress and fm-metrics-v1's run.step_ns render what it carried.
  const std::string edges = "--graph=" + (dir_ / "edges.txt").string();
  const fs::path jsonl = dir_ / "t.jsonl";
  for (const std::string& flag :
       {"jsonl=" + jsonl.string(), std::string("interval-ms=5")}) {
    ErrorLines(edges + " --telemetry-" + flag, /*expected_exit=*/2);
  }
  EXPECT_FALSE(fs::exists(jsonl));
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
  std::ofstream(dir_ / "bad_weight.txt") << "0 1 1.5\n1 0 abc\n";
  std::ofstream(dir_ / "huge_weight.txt") << "0 1 1.5\n1 0 1e39\n";
  // 0-1, 1-2, 2-0, 2-3, both directions: vertex 3's only neighbor is 2.
  std::ofstream(dir_ / "tri.el") << "0 1\n1 0\n1 2\n2 1\n2 0\n0 2\n2 3\n3 2\n";
  const std::string tri = "--graph=" + (dir_ / "tri.el").string() +
                          " --algo=node2vec --walkers=8 --steps=4";
  const std::string edges = "--graph=" + (dir_ / "edges.txt").string();
  std::vector<std::string> cases = {
      "--graph=" + (dir_ / "empty.txt").string(),
      "--graph=" + (dir_ / "bad_weight.txt").string(),
      "--graph=" + (dir_ / "huge_weight.txt").string(),
      "--graph=" + (dir_ / "unweighted.txt").string() + " --weighted",
      edges + " --weighted --algo=node2vec",
      // node2vec's rejection sampler never accepts with p or q <= 0, so
      // these would hang the walk.
      edges + " --algo=node2vec --p=0",
      edges + " --algo=node2vec --p=-1",
      edges + " --algo=node2vec --q=0",
      edges + " --algo=node2vec --q=-1",
      edges + " --algo=node2vec --p=inf",
      edges + " --algo=node2vec --q=nan",
      // 1/p or 1/q overflows to infinity, or (p = 1e300) vertex 3's only
      // candidate weighs 1e-300 of the bound: the accept test cannot
      // represent these weights, and the walk would hang.
      tri + " --p=1e-310",
      tri + " --q=1e-310",
      tri + " --p=1e300",
      edges + " --stop=1",
      edges + " --stop=1.5",
      edges + " --stop=-0.5",
      // A walker count of 0, which the engine would read as one walker per
      // vertex.
      "--graph=" + (dir_ / "unweighted.txt").string() + " --rounds=0 --steps=2",
      "--graph=" + (dir_ / "unweighted.txt").string() +
          " --walkers=0 --steps=2",
      edges + " --trace-json=" + (dir_ / "no_such_dir" / "t.json").string(),
      edges + " --trace-json=/dev/full",
      edges + " --metrics-json=" + (dir_ / "no_such_dir" / "m.json").string(),
      edges + " --metrics-json=/dev/full",
      // Path and edge outputs that cannot be opened, or fail on write.
      edges + " --out=" + (dir_ / "no_such_dir" / "paths.txt").string(),
      edges + " --out=/dev/full",
      edges + " --pairs=" + (dir_ / "no_such_dir" / "pairs.txt").string(),
      edges + " --pairs=/dev/full",
  };
  // The weighted ring 0 -> 1 -> 2 -> 0 (offsets {0,1,2,3}, edges {1,2,0})
  // loads. Each file after it keeps a header that matches the file size but
  // breaks the payload, and both loaders must reject it.
  const std::string ok = WriteCsr("ok.csr", {0, 1, 2, 3}, {1, 2, 0}, {1, 2, 1});
  EXPECT_EQ(Run("--csr=" + ok + " --steps=2 --rounds=1"), 0);
  EXPECT_EQ(Run("--csr=" + ok + " --mmap --steps=2 --rounds=1"), 0);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::string csr_files[] = {
      WriteCsr("target.csr", {0, 1, 2, 3}, {1, 2, 3}),
      WriteCsr("nonmonotone.csr", {0, 2, 1, 3}, {1, 2, 0}),
      WriteCsr("last_offset.csr", {0, 1, 2, 2}, {1, 2, 0}),
      WriteCsr("zero_weight.csr", {0, 1, 2, 3}, {1, 2, 0}, {1, 0, 1}),
      WriteCsr("negative_weight.csr", {0, 1, 2, 3}, {1, 2, 0}, {1, -1, 1}),
      WriteCsr("nan_weight.csr", {0, 1, 2, 3}, {1, 2, 0}, {1, nan, 1}),
      WriteCsr("inf_weight.csr", {0, 1, 2, 3}, {1, 2, 0}, {1, inf, 1}),
  };
  for (const std::string& file : csr_files) {
    cases.push_back("--csr=" + file);
    cases.push_back("--csr=" + file + " --mmap");
  }
  for (const std::string& args : cases) {
    EXPECT_EQ(ErrorLines(args, /*expected_exit=*/1).size(), 1u) << args;
  }
}

TEST_F(CliTest, MalformedNumberIsAUsageErrorNamingTheFlag) {
  // Every numeric flag must be one whole number in range; anything else is a
  // usage error (exit 2) with one error line, never an abort or a wrapped
  // value.
  const std::string edges = "--graph=" + (dir_ / "edges.txt").string();
  const std::pair<std::string, std::string> cases[] = {
      {"--steps", "abc"},
      {"--p", "x"},
      {"--progress", "soon"},
      {"--walkers", "99999999999999999999"},
      {"--seed", "-1x"},
      {"--seed", "-1"},
      {"--steps", "4294967296"},
      {"--rounds", "2 "},
      {"--q", ""},
      {"--stop", "0.1.2"},
  };
  for (const auto& [flag, value] : cases) {
    const std::string arg = flag + "=" + value;
    const std::vector<std::string> errors =
        ErrorLines(edges + " '" + arg + "'", /*expected_exit=*/2);
    ASSERT_EQ(errors.size(), 1u) << arg;
    EXPECT_NE(errors[0].find(flag + "="), std::string::npos) << errors[0];
  }
}

TEST_F(CliTest, FmgenRejectsBadInputWithOneErrorLine) {
  // Each of these used to abort fmgen (an uncaught exception or a failed
  // generator check) or to truncate --v silently. A malformed number is a
  // usage error (exit 2); a value the generator cannot use exits 1.
  const std::string out = " --out=" + (dir_ / "g.csr").string();
  const std::pair<std::string, int> cases[] = {
      {"--kind=powerlaw --v=abc", 2},
      {"--kind=powerlaw --v=-5", 2},
      {"--kind=powerlaw --v=4294967296", 2},
      {"--kind=powerlaw --v=100 --shuffle --weights", 1},
      {"--kind=powerlaw --v=100 --alpha=-1", 1},
      {"--kind=powerlaw --v=100 --alpha=nan", 1},
      {"--kind=powerlaw --v=100 --avgdeg=0", 1},
      {"--kind=rmat --scale=0", 1},
      {"--kind=rmat --scale=40", 1},
  };
  for (const auto& [args, exit_code] : cases) {
    EXPECT_EQ(ErrorLines(args + out, exit_code, FMGEN_PATH).size(), 1u)
        << args;
  }
  EXPECT_FALSE(fs::exists(dir_ / "g.csr"));
}

TEST_F(CliTest, FmgenReportsAFailedWrite) {
  // Both writers check the bytes that reach the file only when it is
  // closed, so a full device is an error, not "wrote".
  if (!fs::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full";
  }
  const std::string gen = "--kind=uniform --v=50 --deg=3 --out=";
  for (const char* name : {"full.csr", "full.txt"}) {
    fs::create_symlink("/dev/full", dir_ / name);
    EXPECT_EQ(ErrorLines(gen + (dir_ / name).string(), 1, FMGEN_PATH).size(),
              1u)
        << name;
  }
  // The same graph written to a file walks.
  const std::string csr = (dir_ / "ok.csr").string();
  EXPECT_EQ(ErrorLines(gen + csr, 0, FMGEN_PATH).size(), 0u);
  EXPECT_EQ(Run("--csr=" + csr + " --steps=2 --rounds=1"), 0);
}

}  // namespace
