// Tests for the application layer (src/apps): Monte-Carlo PageRank (global and
// personalized) against exact power iteration, skip-gram corpus generation, and
// the engine's seeded start-vertex support they rely on.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/embedding_corpus.h"
#include "src/apps/pagerank.h"
#include "src/gen/powerlaw_graph.h"
#include "src/graph/degree_sort.h"
#include "tests/test_util.h"

namespace fm {
namespace {

CsrGraph SkewedGraph(Vid n, bool shuffle_labels = false) {
  PowerLawConfig config;
  config.degrees.num_vertices = n;
  config.degrees.avg_degree = 8;
  config.degrees.alpha = 0.75;
  config.degrees.max_degree = n / 8;
  config.shuffle_labels = shuffle_labels;
  return GeneratePowerLawGraph(config);
}

TEST(SeededStartTest, WalkersStartExactlyAtSeeds) {
  CsrGraph g = SkewedGraph(2000);
  FlashMobEngine engine(g);
  WalkSpec spec;
  spec.steps = 3;
  spec.num_walkers = 9000;
  spec.start_vertices = {5, 17, 100};
  WalkResult result = engine.Run(spec);
  std::vector<uint64_t> starts(3, 0);
  for (Wid w = 0; w < result.paths.num_walkers(); ++w) {
    Vid s = result.paths.At(w, 0);
    ASSERT_TRUE(s == 5 || s == 17 || s == 100) << s;
    ++starts[s == 5 ? 0 : (s == 17 ? 1 : 2)];
  }
  // Round-robin assignment: exactly a third each.
  EXPECT_EQ(starts[0], 3000u);
  EXPECT_EQ(starts[1], 3000u);
  EXPECT_EQ(starts[2], 3000u);
}

TEST(SeededStartTest, SeedsRespectedAcrossEpisodes) {
  CsrGraph g = SkewedGraph(500);
  EngineOptions options;
  options.dram_budget_bytes = 1 << 20;  // force episodes
  FlashMobEngine engine(g, options);
  WalkSpec spec;
  spec.steps = 2;
  spec.num_walkers = 90000;
  spec.start_vertices = {7};
  WalkResult result = engine.Run(spec);
  ASSERT_GT(result.stats.episodes, 1u);
  for (Wid w = 0; w < result.paths.num_walkers(); ++w) {
    ASSERT_EQ(result.paths.At(w, 0), 7u);
  }
}

TEST(SeededStartTest, RejectsOutOfRangeSeed) {
  CsrGraph g = SkewedGraph(100);
  FlashMobEngine engine(g);
  WalkSpec spec;
  spec.steps = 1;
  spec.num_walkers = 10;
  spec.start_vertices = {1000};
  EXPECT_DEATH(engine.Run(spec), "out of range");
}

TEST(PageRankTest, GlobalMatchesPowerIteration) {
  CsrGraph g = SkewedGraph(3000);
  PageRankOptions options;
  options.walkers_per_vertex = 30;
  options.seed = 4;
  auto estimate = EstimatePageRank(g, options);
  auto exact = PowerIterationPageRank(g, options);
  // Both are probability vectors...
  EXPECT_NEAR(std::accumulate(estimate.begin(), estimate.end(), 0.0), 1.0, 1e-9);
  EXPECT_NEAR(std::accumulate(exact.begin(), exact.end(), 0.0), 1.0, 1e-6);
  // ...and close in L1 (MC error ~ 1/sqrt(samples)).
  EXPECT_LT(L1Distance(estimate, exact), 0.08);
  // Top-10 vertices agree strongly (ranking is what applications use).
  std::vector<Vid> order(g.num_vertices());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](Vid a, Vid b) { return exact[a] > exact[b]; });
  for (int i = 0; i < 10; ++i) {
    EXPECT_NEAR(estimate[order[i]], exact[order[i]], exact[order[i]] * 0.2)
        << "rank " << i;
  }
}

TEST(PageRankTest, PersonalizedConcentratesNearSeeds) {
  CsrGraph g = SkewedGraph(2000);
  PageRankOptions options;
  options.walkers_per_vertex = 20;
  options.personalization = {42};
  auto estimate = EstimatePageRank(g, options);
  auto exact = PowerIterationPageRank(g, options);
  EXPECT_LT(L1Distance(estimate, exact), 0.1);
  // The seed's own score dominates the global average by a wide margin.
  EXPECT_GT(estimate[42], 5.0 / g.num_vertices());
}

TEST(PageRankTest, WeightedGraphUsesWeights) {
  // Fan 0 -> {1 (w=1), 2 (w=9)} with returns; PR mass at 2 must far exceed 1.
  GraphBuilder b(3);
  b.AddEdge(0, 1, 1.0f);
  b.AddEdge(0, 2, 9.0f);
  b.AddEdge(1, 0);
  b.AddEdge(2, 0);
  CsrGraph g = DegreeSort(b.Build()).graph;
  PageRankOptions options;
  options.walkers_per_vertex = 3000;
  auto estimate = EstimatePageRank(g, options);
  auto exact = PowerIterationPageRank(g, options);
  EXPECT_LT(L1Distance(estimate, exact), 0.05);
  // Map original IDs through the sort (identity here: degrees 2,1,1 keep order).
  EXPECT_GT(estimate[2], estimate[1] * 3);
}

// The walker-at-a-time loop WriteSkipGramPairs replaced, kept as the
// byte-exact reference: each walker's live path, then for every center its
// window contexts in path order, both ends through id_map.
std::vector<uint32_t> ReferenceSkipGramPairs(const PathSet& paths,
                                             const CorpusOptions& options) {
  auto map = [&](Vid v) {
    return options.id_map != nullptr ? (*options.id_map)[v] : v;
  };
  std::vector<uint32_t> words;
  for (Wid w = 0; w < paths.num_walkers(); ++w) {
    auto path = paths.Path(w);  // stops at termination
    for (size_t i = 0; i < path.size(); ++i) {
      size_t lo = i > options.window ? i - options.window : 0;
      size_t hi = std::min(path.size(), i + options.window + 1);
      for (size_t j = lo; j < hi; ++j) {
        if (j != i) {
          words.push_back(map(path[i]));
          words.push_back(map(path[j]));
        }
      }
    }
  }
  return words;
}

// What WriteSkipGramPairs returned, and the uint32 words it wrote.
struct WrittenCorpus {
  uint64_t count = 0;
  std::vector<uint32_t> words;
};

WrittenCorpus WriteAndRead(const PathSet& paths, const CorpusOptions& options,
                           ThreadPool& pool = ThreadPool::Global()) {
  // Per process, so runs of this test in several build trees at once do not
  // share a file.
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("fm_corpus_test_" + std::to_string(getpid()) + ".bin");
  WrittenCorpus written;
  written.count = WriteSkipGramPairs(paths, options, path.string(), pool);
  const uintmax_t bytes = std::filesystem::file_size(path);
  EXPECT_EQ(bytes % sizeof(uint32_t), 0u);
  written.words.resize(bytes / sizeof(uint32_t));
  std::ifstream in(path, std::ios::binary);
  const size_t read_bytes = written.words.size() * sizeof(uint32_t);
  in.read(reinterpret_cast<char*>(written.words.data()),
          static_cast<std::streamsize>(read_bytes));
  EXPECT_FALSE(in.fail());
  std::filesystem::remove(path);
  return written;
}

std::vector<std::pair<Vid, Vid>> AsPairs(const std::vector<uint32_t>& words) {
  std::vector<std::pair<Vid, Vid>> pairs;
  for (size_t i = 0; i + 1 < words.size(); i += 2) {
    pairs.push_back({words[i], words[i + 1]});
  }
  return pairs;
}

// The message of the std::runtime_error `fn` throws, or "" if it returns.
template <typename Fn>
std::string ThrownMessage(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(CorpusTest, PairCountAndWindow) {
  // One walker, path 0-1-2-3 (ring), window 1: pairs = 2*(len-1) = 6.
  PathSet paths(1, 3);
  paths.Row(0) = {0};
  paths.Row(1) = {1};
  paths.Row(2) = {2};
  paths.Row(3) = {3};
  CorpusOptions options;
  options.window = 1;
  WrittenCorpus written = WriteAndRead(paths, options);
  auto pairs = AsPairs(written.words);
  EXPECT_EQ(written.count, 6u);
  ASSERT_EQ(pairs.size(), 6u);
  EXPECT_EQ(pairs[0], (std::pair<Vid, Vid>{0, 1}));
  // Window 2 adds the distance-2 pairs: 6 + 4 = 10.
  options.window = 2;
  written = WriteAndRead(paths, options);
  EXPECT_EQ(written.count, 10u);
  EXPECT_EQ(written.words.size(), 20u);
}

TEST(CorpusTest, TerminatedPathsTruncate) {
  PathSet paths(1, 3);
  paths.Row(0) = {0};
  paths.Row(1) = {1};
  paths.Row(2) = {kInvalidVid};
  paths.Row(3) = {kInvalidVid};
  CorpusOptions options;
  options.window = 2;
  WrittenCorpus written = WriteAndRead(paths, options);
  EXPECT_EQ(written.count, 2u);
  EXPECT_EQ(written.words.size(), 4u);
}

TEST(CorpusTest, IdMapApplied) {
  PathSet paths(1, 1);
  paths.Row(0) = {0};
  paths.Row(1) = {1};
  std::vector<Vid> map{100, 200};
  CorpusOptions options;
  options.window = 1;
  options.id_map = &map;
  auto pairs = AsPairs(WriteAndRead(paths, options).words);
  ASSERT_FALSE(pairs.empty());
  EXPECT_EQ(pairs[0], (std::pair<Vid, Vid>{100, 200}));
}

// The parallel writer must reproduce the serial reference byte for byte, with
// the same count, on every pool size: across windows narrower and wider than
// the walk, with terminated walkers, over several episodes' appended paths,
// with and without id_map, and with a prime walker count, which fills several
// walker tiles and leaves the last one partial.
TEST(CorpusTest, MatchesSerialReferenceOnEveryPool) {
  // Shuffled labels, so DegreeSort's new_to_old is no identity map.
  DegreeSortedGraph sorted = DegreeSort(SkewedGraph(2000, true));
  ASSERT_FALSE(
      std::is_sorted(sorted.new_to_old.begin(), sorted.new_to_old.end()));
  const uint32_t steps = 8;
  struct Run {
    const char* name;
    double stop_probability;
    uint64_t dram_budget_bytes;  // 0 = one episode
  };
  const Run runs[] = {
      {"one episode", 0.0, 0},
      {"stop 0.15", 0.15, 0},
      // 2,500 walkers of steps + 3 rows per episode: three episodes.
      {"three episodes", 0.0, 2500 * (steps + 3) * sizeof(Vid)},
  };
  ThreadPool pool1(1), pool2(2), pool3(3), pool8(8);
  ThreadPool* pools[] = {&pool1, &pool2, &pool3, &pool8};
  const std::vector<Vid>* id_maps[] = {nullptr, &sorted.new_to_old};
  for (const Run& run : runs) {
    EngineOptions engine_options;
    engine_options.dram_budget_bytes = run.dram_budget_bytes;
    FlashMobEngine engine(sorted.graph, engine_options);
    WalkSpec spec;
    spec.steps = steps;
    spec.num_walkers = 6007;  // prime
    spec.stop_probability = run.stop_probability;
    WalkResult result = engine.Run(spec);
    if (run.dram_budget_bytes != 0) {
      ASSERT_EQ(result.stats.episodes, 3u);
    }
    for (uint32_t window : {1u, 2u, 5u, steps + 3}) {
      for (const std::vector<Vid>* id_map : id_maps) {
        CorpusOptions options;
        options.window = window;
        options.id_map = id_map;
        const std::vector<uint32_t> reference =
            ReferenceSkipGramPairs(result.paths, options);
        for (ThreadPool* pool : pools) {
          SCOPED_TRACE(testing::Message()
                       << run.name << ", window " << window << ", id_map "
                       << (id_map != nullptr) << ", " << pool->thread_count()
                       << " threads");
          WrittenCorpus written = WriteAndRead(result.paths, options, *pool);
          EXPECT_EQ(written.count, reference.size() / 2);
          EXPECT_TRUE(written.words == reference);
        }
      }
    }
  }
}

TEST(CorpusTest, EmptyPathSetWritesEmptyFile) {
  for (const PathSet& paths : {PathSet(), PathSet(0, 5)}) {
    WrittenCorpus written = WriteAndRead(paths, CorpusOptions{});
    EXPECT_EQ(written.count, 0u);
    EXPECT_TRUE(written.words.empty());
  }
}

TEST(CorpusTest, WriteFailuresThrow) {
  PathSet paths(1, 3);
  for (uint32_t s = 0; s <= 3; ++s) {
    paths.Row(s) = {s};
  }
  EXPECT_NE(ThrownMessage([&] {
              WriteSkipGramPairs(paths, CorpusOptions{}, "/dev/full");
            }).find("corpus write failed"),
            std::string::npos);
  const std::string missing =
      (std::filesystem::temp_directory_path() / "fm_no_such_dir" / "p.bin")
          .string();
  EXPECT_NE(ThrownMessage([&] {
              WriteSkipGramPairs(paths, CorpusOptions{}, missing);
            }).find("cannot open corpus output"),
            std::string::npos);
}

TEST(CorpusTest, BinaryFileRoundTrip) {
  CsrGraph g = SkewedGraph(500);
  FlashMobEngine engine(g);
  WalkSpec spec;
  spec.steps = 10;
  spec.num_walkers = 1000;
  WalkResult result = engine.Run(spec);

  CorpusOptions options;
  options.window = 3;
  WrittenCorpus written = WriteAndRead(result.paths, options);
  EXPECT_EQ(written.words.size(), written.count * 2);
  // Every pair is within vertex range.
  for (uint32_t v : written.words) {
    ASSERT_LT(v, g.num_vertices());
  }
}

}  // namespace
}  // namespace fm
