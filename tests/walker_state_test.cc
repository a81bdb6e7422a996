// WalkerState: episode sizing, buffer rotation, and parallel placement with
// observer notification.
#include "src/core/walker_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <numeric>
#include <utility>
#include <vector>

#include "src/cachesim/mem_hook.h"
#include "src/core/walk_observer.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/test_util.h"

namespace fm {
namespace {

// Records every placement chunk so tests can check the chunks tile [0, w)
// exactly and carry the final row contents.
class RecordingObserver : public WalkObserver {
 public:
  void OnPlacementChunk(Wid begin, std::span<const Vid> positions) override {
    MutexLock lock(mu_);
    chunks_.push_back(
        {begin, std::vector<Vid>(positions.begin(), positions.end())});
  }

  struct Chunk {
    Wid begin;
    std::vector<Vid> positions;
  };

  std::vector<Chunk> sorted_chunks() {
    MutexLock lock(mu_);
    std::vector<Chunk> out = chunks_;
    std::sort(out.begin(), out.end(),
              [](const Chunk& a, const Chunk& b) { return a.begin < b.begin; });
    return out;
  }

 private:
  Mutex mu_;
  std::vector<Chunk> chunks_ FM_GUARDED_BY(mu_);
};

TEST(WalkerStateTest, EpisodeCapacityMatchesPerWalkerBytes) {
  WalkSpec spec;
  spec.num_walkers = 1u << 30;
  spec.steps = 13;  // keep_paths: (13 + 3) * 4 = 64 bytes per walker
  EXPECT_EQ(EpisodeCapacity(spec, 64u << 20, 100), (64u << 20) / 64);

  spec.keep_paths = false;  // rotating rows: 24 bytes per walker
  EXPECT_EQ(EpisodeCapacity(spec, 24u << 20, 100), 1u << 20);

  spec.algorithm = WalkAlgorithm::kNode2Vec;  // + 8 bytes of predecessor state
  EXPECT_EQ(EpisodeCapacity(spec, 32u << 20, 100), 1u << 20);
}

TEST(WalkerStateTest, EpisodeCapacityFloorsAndCaps) {
  WalkSpec spec;
  spec.num_walkers = 500;
  spec.steps = 10;
  // Tiny budget floors at 1024 walkers, then the total bounds it.
  EXPECT_EQ(EpisodeCapacity(spec, 1, 100), 500u);
  spec.num_walkers = 1u << 20;
  EXPECT_EQ(EpisodeCapacity(spec, 1, 100), 1024u);
  // num_walkers == 0 means one walker per vertex.
  spec.num_walkers = 0;
  EXPECT_EQ(EpisodeCapacity(spec, 1u << 30, 300), 300u);
}

TEST(WalkerStateTest, SeededPlacementRoundRobinWithBaseOffset) {
  CsrGraph g = SmallSortedGraph();
  ThreadPool pool(3);
  WalkSpec spec;
  spec.start_vertices = {2, 0, 1};
  spec.num_walkers = 10;
  spec.steps = 1;
  WalkerState state(g, spec, /*walkers=*/10);
  PlaceWalkers(g, spec, &pool, /*episode=*/0, /*base_walker=*/5,
               {state.cur(), 10});
  for (Wid j = 0; j < 10; ++j) {
    EXPECT_EQ(state.cur()[j], spec.start_vertices[(5 + j) % 3]) << j;
  }
}

TEST(WalkerStateTest, DegreeProportionalPlacementIsDeterministic) {
  CsrGraph g = StarGraph(32);
  auto sorted = DegreeSort(g);
  ThreadPool pool(4);
  WalkSpec spec;
  spec.num_walkers = 5000;
  spec.steps = 1;
  spec.seed = 77;
  WalkerState a(sorted.graph, spec, 5000);
  WalkerState b(sorted.graph, spec, 5000);
  PlaceWalkers(sorted.graph, spec, &pool, 0, 0, {a.cur(), 5000});
  PlaceWalkers(sorted.graph, spec, &pool, 0, 0, {b.cur(), 5000});
  EXPECT_TRUE(std::equal(a.cur(), a.cur() + 5000, b.cur()));
  // The hub (sorted VID 0) owns half the undirected star's edges.
  Wid hub = static_cast<Wid>(std::count(a.cur(), a.cur() + 5000, Vid{0}));
  EXPECT_NEAR(static_cast<double>(hub) / 5000, 0.5, 0.05);
}

TEST(WalkerStateTest, WalkerRangesDependOnTheCountAlone) {
  // Every pool size sees the same ranges, and they tile [0, count): the
  // property that lets placement and the baselines key streams by `begin`.
  const Wid count = 10007;  // prime: the last range is short
  std::vector<std::pair<Wid, Wid>> reference;
  for (uint32_t threads : {1u, 2u, 3u, 4u}) {
    ThreadPool pool(threads);
    Mutex mu;
    std::vector<std::pair<Wid, Wid>> ranges;
    ForEachWalkerRange(&pool, count, 1000, [&](Wid begin, Wid end, uint32_t) {
      MutexLock lock(mu);
      ranges.emplace_back(begin, end);
    });
    std::sort(ranges.begin(), ranges.end());
    Wid next = 0;
    for (const auto& [begin, end] : ranges) {
      ASSERT_EQ(begin, next);
      ASSERT_LE(end - begin, 1000u);
      next = end;
    }
    EXPECT_EQ(next, count);
    if (threads == 1) {
      reference = ranges;
    }
    EXPECT_EQ(ranges, reference) << threads << " threads";
  }
}

TEST(WalkerStateTest, PlacementChunksTileTheEpisode) {
  // Three placement blocks, the last one short.
  CsrGraph g = SmallSortedGraph();
  ThreadPool pool(4);
  WalkSpec spec;
  spec.num_walkers = 150000;
  spec.steps = 1;
  WalkerState state(g, spec, 150000);
  RecordingObserver recorder;
  WalkObserver* observers[] = {&recorder};
  PlaceWalkers(g, spec, &pool, 0, 0, {state.cur(), 150000}, observers);
  Wid next = 0;
  for (const auto& chunk : recorder.sorted_chunks()) {
    ASSERT_EQ(chunk.begin, next);
    for (size_t i = 0; i < chunk.positions.size(); ++i) {
      ASSERT_EQ(chunk.positions[i], state.cur()[chunk.begin + i]);
    }
    next += chunk.positions.size();
  }
  EXPECT_EQ(recorder.sorted_chunks().size(), 3u);
  EXPECT_EQ(next, 150000u);
}

TEST(WalkerStateTest, TrackedRotationCyclesThreeBuffers) {
  CsrGraph g = SmallSortedGraph();
  WalkSpec spec;
  spec.num_walkers = 100;
  spec.steps = 4;
  spec.keep_paths = false;
  WalkerState state(g, spec, 100);
  Vid* row0 = state.cur();
  Vid* row1 = state.GatherTarget(0);
  EXPECT_NE(row0, row1);
  state.AdvanceTracked(0);
  EXPECT_EQ(state.cur(), row1);
  // Without node2vec only two buffers rotate: the old cur frees up.
  EXPECT_EQ(state.GatherTarget(1), row0);
  state.AdvanceTracked(1);
  EXPECT_EQ(state.cur(), row0);
  EXPECT_EQ(state.GatherTarget(2), row1);
}

TEST(WalkerStateTest, Node2VecTrackedKeepsPredecessorRow) {
  CsrGraph g = SmallSortedGraph();
  WalkSpec spec;
  spec.num_walkers = 50;
  spec.steps = 4;
  spec.keep_paths = false;
  spec.algorithm = WalkAlgorithm::kNode2Vec;
  WalkerState state(g, spec, 50);
  ASSERT_NE(state.sw_prev(), nullptr);
  // First step has no predecessors; AfterScatter(nullptr) must mark that.
  EXPECT_EQ(state.scatter_aux(), nullptr);
  state.AfterScatter(nullptr);
  EXPECT_EQ(state.sw_prev()[0], kInvalidVid);
  Vid* row0 = state.cur();
  state.AdvanceTracked(0);
  // Now the previous row is the predecessor source for the next scatter.
  EXPECT_EQ(state.scatter_aux(), row0);
}

TEST(WalkerStateTest, IdentityFreeAdvanceSwapsInSampledRow) {
  CsrGraph g = SmallSortedGraph();
  WalkSpec spec;
  spec.num_walkers = 64;
  spec.steps = 2;
  spec.keep_paths = false;
  spec.track_identity = false;
  WalkerState state(g, spec, 64);
  EXPECT_EQ(state.width(), 64u);
  for (Wid j = 0; j < 64; ++j) {
    state.sw()[j] = static_cast<Vid>(j % 4);
  }
  // The scatter's VP chunks ended at slot 48; the dead bin behind them drops
  // out of the scan.
  state.AdvanceIdentityFree(48);
  EXPECT_EQ(state.width(), 48u);
  for (Wid j = 0; j < 64; ++j) {
    ASSERT_EQ(state.cur()[j], static_cast<Vid>(j % 4));
  }
}

// Fills row[0, width) with walker j at vertex j % 4, or dead where the seeded
// draw says so.
void FillWithDeaths(Vid* row, Wid width, double dead_share, uint64_t seed) {
  XorShiftRng rng(seed);
  for (Wid j = 0; j < width; ++j) {
    row[j] = rng.NextDouble() < dead_share ? kInvalidVid
                                           : static_cast<Vid>(j % 4);
  }
}

TEST(WalkerStateTest, SqueezePacksSurvivorsInWalkerOrder) {
  // A width of 3.5 squeeze ranges, so blocks shift across range boundaries;
  // a fully dead range and a fully live one sit among mixed ones. The packed
  // prefix must be the survivors in walker order at every pool size.
  CsrGraph g = SmallSortedGraph();
  WalkSpec spec;
  spec.keep_paths = false;
  spec.stop_probability = 0.5;
  const Wid walkers = WalkerState::kSqueezeRange * 7 / 2;
  spec.num_walkers = walkers;
  for (uint32_t threads : {1u, 3u}) {
    ThreadPool pool(threads);
    WalkerState state(g, spec, walkers);
    FillWithDeaths(state.cur(), walkers, 0.6, 5);
    const Wid range = WalkerState::kSqueezeRange;
    std::fill(state.cur() + range, state.cur() + 2 * range, kInvalidVid);
    for (Wid j = 2 * range; j < 3 * range; ++j) {
      state.cur()[j] = static_cast<Vid>(j % 4);
    }
    std::vector<Vid> live;
    std::copy_if(state.cur(), state.cur() + walkers, std::back_inserter(live),
                 [](Vid v) { return v != kInvalidVid; });
    NullMemHook hook;
    state.Squeeze(&pool, hook);
    ASSERT_EQ(state.width(), live.size()) << threads << " threads";
    EXPECT_TRUE(std::equal(live.begin(), live.end(), state.cur()))
        << threads << " threads";
  }
}

TEST(WalkerStateTest, SqueezeCarriesNode2VecPredecessorsWithTheMask) {
  CsrGraph g = SmallSortedGraph();
  WalkSpec spec;
  spec.keep_paths = false;
  spec.algorithm = WalkAlgorithm::kNode2Vec;
  const Wid walkers = WalkerState::kSqueezeRange * 2 + 100;
  spec.num_walkers = walkers;
  ThreadPool pool(3);
  WalkerState state(g, spec, walkers);
  Vid* row0 = state.cur();
  for (Wid j = 0; j < walkers; ++j) {
    row0[j] = static_cast<Vid>(j);  // predecessor j marks walker j
  }
  state.AdvanceTracked(0);
  ASSERT_EQ(state.scatter_aux(), row0);
  FillWithDeaths(state.cur(), walkers, 0.5, 9);
  std::vector<Vid> live_cur;
  std::vector<Vid> live_prev;
  for (Wid j = 0; j < walkers; ++j) {
    if (state.cur()[j] != kInvalidVid) {
      live_cur.push_back(state.cur()[j]);
      live_prev.push_back(static_cast<Vid>(j));
    }
  }
  NullMemHook hook;
  state.Squeeze(&pool, hook);
  ASSERT_EQ(state.width(), live_cur.size());
  EXPECT_TRUE(std::equal(live_cur.begin(), live_cur.end(), state.cur()));
  EXPECT_TRUE(
      std::equal(live_prev.begin(), live_prev.end(), state.scatter_aux()));
}

TEST(WalkerStateTest, TakePathsReturnsPlacedRows) {
  CsrGraph g = SmallSortedGraph();
  ThreadPool pool(2);
  WalkSpec spec;
  spec.start_vertices = {3};
  spec.num_walkers = 20;
  spec.steps = 2;
  WalkerState state(g, spec, 20);
  PlaceWalkers(g, spec, &pool, 0, 0, {state.cur(), 20});
  PathSet paths = state.TakePaths();
  ASSERT_EQ(paths.num_walkers(), 20u);
  for (Wid j = 0; j < 20; ++j) {
    EXPECT_EQ(paths.At(j, 0), 3u);
  }
}

}  // namespace
}  // namespace fm
