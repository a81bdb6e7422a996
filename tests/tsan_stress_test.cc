// ThreadSanitizer-targeted stress suite.
//
// These tests exist to give TSan (cmake -DFM_SANITIZE=thread) dense schedules
// over the two lock-free-by-construction components: ThreadPool's epoch
// handshake and Shuffler's disjoint-region scatter/gather (§4.3 "threads work
// on disjoint array areas"). They also pin down a correctness property that
// only matters under varying parallelism: the scatter layout may depend on the
// chunk count, but the full Scatter -> Gather round trip must be bit-identical
// across 1/2/8/hardware thread counts. The suite is deterministic and cheap
// enough to run in every build mode; under TSan it is the main race detector.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/engine.h"
#include "src/core/partition_plan.h"
#include "src/core/shuffle.h"
#include "src/gen/powerlaw_graph.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/test_util.h"

namespace fm {
namespace {

std::vector<uint32_t> StressThreadCounts() {
  std::vector<uint32_t> counts = {1, 2, 8};
  uint32_t hw = std::thread::hardware_concurrency();
  if (hw > 0 && std::find(counts.begin(), counts.end(), hw) == counts.end()) {
    counts.push_back(hw);
  }
  return counts;
}

CsrGraph StressGraph(Vid n) {
  PowerLawConfig config;
  config.degrees.num_vertices = n;
  config.degrees.avg_degree = 8;
  config.degrees.alpha = 0.8;
  return GeneratePowerLawGraph(config);
}

std::vector<Vid> StressWalkers(Wid count, Vid n, uint64_t seed,
                               double dead_fraction) {
  std::vector<Vid> w(count);
  XorShiftRng rng(seed);
  for (Wid j = 0; j < count; ++j) {
    w[j] = (dead_fraction > 0 && rng.NextDouble() < dead_fraction)
               ? kInvalidVid
               : static_cast<Vid>(rng.NextBounded(n));
  }
  return w;
}

// --- ThreadPool hammering ----------------------------------------------------

TEST(TsanStressTest, ParallelForHammerAcrossThreadCounts) {
  // Many short jobs back-to-back: the epoch/handshake edges (job publication,
  // worker wake, completion barrier) are crossed thousands of times, which is
  // where a missing fence shows up under TSan.
  for (uint32_t threads : StressThreadCounts()) {
    ThreadPool pool(threads);
    uint64_t expected_total = 0;
    std::atomic<uint64_t> total{0};
    for (int round = 0; round < 200; ++round) {
      uint64_t tasks = static_cast<uint64_t>(round % 7) * 13;  // includes 0
      expected_total += tasks;
      pool.ParallelFor(tasks, [&](uint64_t, uint32_t) {
        // relaxed: pure event count; ParallelFor's join orders it before load.
        total.fetch_add(1, std::memory_order_relaxed);
      });
    }
    EXPECT_EQ(total.load(), expected_total) << threads << " threads";
  }
}

TEST(TsanStressTest, ParallelForPublishesPlainWrites) {
  // Non-atomic writes inside a job, plain reads after the join: TSan verifies
  // the completion handshake provides the happens-before edge, exactly the way
  // the shuffle trusts it (counts written in pass 1, read by the prefix sum).
  for (uint32_t threads : StressThreadCounts()) {
    ThreadPool pool(threads);
    const uint64_t n = 1 << 16;
    std::vector<uint32_t> data(n, 0);
    for (int round = 1; round <= 10; ++round) {
      pool.ParallelFor(64, [&](uint64_t c, uint32_t) {
        uint64_t begin = c * (n / 64);
        uint64_t end = begin + (n / 64);
        for (uint64_t i = begin; i < end; ++i) {
          data[i] += static_cast<uint32_t>(round);
        }
      });
      uint64_t sum = 0;
      for (uint32_t v : data) {
        sum += v;
      }
      // 1 + 2 + ... + round, times n.
      ASSERT_EQ(sum, n * (static_cast<uint64_t>(round) * (round + 1) / 2));
    }
  }
}

TEST(TsanStressTest, ParallelForWorkerSlotsAreExclusive) {
  // Each worker accumulates into its own slot (the per-thread counter-array
  // pattern of CountAndPrefix and the baselines' per-worker shards). Any
  // cross-worker interference is a race TSan reports and a checksum failure
  // here.
  for (uint32_t threads : StressThreadCounts()) {
    ThreadPool pool(threads);
    std::vector<uint64_t> per_worker(pool.thread_count(), 0);
    const uint64_t n = 10007;  // prime: no even split over any pool
    for (int round = 0; round < 20; ++round) {
      pool.ParallelFor(n, [&](uint64_t task, uint32_t worker) {
        per_worker[worker] += task + 1;
      });
    }
    uint64_t covered = 0;
    for (uint64_t c : per_worker) {
      covered += c;
    }
    EXPECT_EQ(covered, 20 * (n * (n + 1) / 2)) << threads << " threads";
  }
}

TEST(TsanStressTest, IndependentPoolsRunConcurrently) {
  // Two pools driven from two submitter threads at once: pool state must be
  // fully per-instance (no hidden globals besides ThreadPool::Global()).
  auto drive = [](ThreadPool& pool, std::atomic<uint64_t>& total) {
    for (int round = 0; round < 100; ++round) {
      pool.ParallelFor(32, [&](uint64_t, uint32_t) {
        // relaxed: pure event count; ParallelFor's join orders it before load.
        total.fetch_add(1, std::memory_order_relaxed);
      });
    }
  };
  ThreadPool pool_a(3);
  ThreadPool pool_b(2);
  std::atomic<uint64_t> total_a{0};
  std::atomic<uint64_t> total_b{0};
  std::thread ta([&] { drive(pool_a, total_a); });
  std::thread tb([&] { drive(pool_b, total_b); });
  ta.join();
  tb.join();
  EXPECT_EQ(total_a.load(), 3200u);
  EXPECT_EQ(total_b.load(), 3200u);
}

TEST(TsanStressTest, NestedDistinctPoolsUnderLoad) {
  // Outer job bodies drive an inner pool (serialized — one pool accepts one
  // job at a time): reentrancy-adjacent edge the engine's per-VP stages sit on.
  ThreadPool outer(4);
  ThreadPool inner(2);
  Mutex submit_mutex;
  std::atomic<uint64_t> total{0};
  for (int round = 0; round < 20; ++round) {
    outer.ParallelFor(8, [&](uint64_t, uint32_t) {
      MutexLock lock(submit_mutex);
      inner.ParallelFor(16, [&](uint64_t, uint32_t) {
        // relaxed: pure event count; ParallelFor's join orders it before load.
        total.fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  EXPECT_EQ(total.load(), 20u * 8 * 16);
}

TEST(TsanStressTest, PoolConstructionTeardownChurn) {
  // Construct, use once, destroy — the join-on-shutdown path, repeatedly.
  for (int round = 0; round < 50; ++round) {
    ThreadPool pool(1 + round % 4);
    std::atomic<uint32_t> hits{0};
    pool.ParallelFor(pool.thread_count() * 2,
                     [&](uint64_t, uint32_t) { ++hits; });
    ASSERT_EQ(hits.load(), pool.thread_count() * 2);
  }
}

// --- Shuffler determinism across thread counts -------------------------------

class ShuffleDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = StressGraph(20000);
    plan_ = PartitionPlan::BuildUniform(graph_, 64, SamplePolicy::kDS);
  }
  CsrGraph graph_;
  PartitionPlan plan_;
};

TEST_F(ShuffleDeterminismTest, RoundTripIsIdenticalAcrossThreadCounts) {
  const Wid n = 60000;
  auto w = StressWalkers(n, graph_.num_vertices(), 0xBEEF, 0.1);
  std::vector<Vid> aux(n);
  for (Wid j = 0; j < n; ++j) {
    aux[j] = static_cast<Vid>(j * 2654435761u);
  }

  std::vector<Vid> ref_next;      // 1-thread reference round trip
  std::vector<Vid> ref_aux_next;  // aux carried through the same permutation
  std::map<uint32_t, std::vector<Vid>> ref_per_vp;
  for (uint32_t threads : StressThreadCounts()) {
    ThreadPool pool(threads);
    Shuffler shuffler(&plan_, &pool);
    std::vector<Vid> sw(n), sw_aux(n), w_next(n), aux_next(n);
    shuffler.Scatter(w.data(), aux.data(), n, sw.data(), sw_aux.data());

    // The SW layout may legally differ by chunk count, but each VP chunk must
    // hold the same multiset of walkers regardless of parallelism.
    const auto& offs = shuffler.vp_offsets();
    ASSERT_EQ(offs.back(), n);
    std::map<uint32_t, std::vector<Vid>> per_vp;
    for (uint32_t vp = 0; vp < plan_.num_vps(); ++vp) {
      std::vector<Vid> chunk(sw.begin() + offs[vp], sw.begin() + offs[vp + 1]);
      std::sort(chunk.begin(), chunk.end());
      per_vp[vp] = std::move(chunk);
    }
    if (threads == 1) {
      ref_per_vp = per_vp;
    } else {
      ASSERT_EQ(per_vp, ref_per_vp) << threads << " threads";
    }

    ASSERT_TRUE(shuffler
                    .Gather(w.data(), n, sw.data(), w_next.data(),
                            sw_aux.data(), aux_next.data())
                    .ok());
    if (threads == 1) {
      ref_next = w_next;
      ref_aux_next = aux_next;
      // The untouched round trip must be the identity on both streams.
      EXPECT_EQ(w_next, w);
      EXPECT_EQ(aux_next, aux);
    } else {
      ASSERT_EQ(w_next, ref_next) << threads << " threads";
      ASSERT_EQ(aux_next, ref_aux_next) << threads << " threads";
    }
  }
}

TEST_F(ShuffleDeterminismTest, RepeatedScatterGatherIsStable) {
  // Same Shuffler object reused across many steps (the engine's pattern) while
  // the "sample stage" rewrites SW in place between the passes.
  const Wid n = 30000;
  for (uint32_t threads : StressThreadCounts()) {
    ThreadPool pool(threads);
    Shuffler shuffler(&plan_, &pool);
    auto w = StressWalkers(n, graph_.num_vertices(), 0xF00D, 0.0);
    std::vector<Vid> sw(n), w_next(n);
    for (int step = 0; step < 10; ++step) {
      shuffler.Scatter(w.data(), nullptr, n, sw.data(), nullptr);
      for (Wid p = 0; p < n; ++p) {
        sw[p] = (sw[p] + 1) % graph_.num_vertices();  // fake sample: v -> v+1
      }
      ASSERT_TRUE(shuffler
                      .Gather(w.data(), n, sw.data(), w_next.data(), nullptr,
                              nullptr)
                      .ok());
      for (Wid j = 0; j < n; ++j) {
        ASSERT_EQ(w_next[j], (w[j] + 1) % graph_.num_vertices());
      }
      w.swap(w_next);
    }
  }
}

// --- visit counting into one shared array -----------------------------------

TEST(TsanStressTest, SharedVisitCountsAcrossThreadCounts) {
  // The engine counts visits into one shared |V| array: each VP task adds its
  // own chunk's vertices before stepping them, and each episode's final
  // positions are counted by VP after one more scatter. Neighbouring VPs'
  // tasks write distinct elements that can share a cache line; under TSan
  // this is the race check for that array. A two-level plan, kills and
  // several episodes put every scatter path and the dead bin under it. The
  // counts must equal the 1-thread run's and the streamed oracle's.
  PowerLawConfig config;
  config.degrees.num_vertices = 60000;
  config.degrees.avg_degree = 8;
  config.degrees.alpha = 0.8;
  config.degrees.max_degree = 60000 / 8;
  CsrGraph g = GeneratePowerLawGraph(config);
  WalkSpec spec;
  spec.steps = 6;
  spec.num_walkers = 40000;
  spec.seed = 19;
  spec.stop_probability = 0.15;
  spec.keep_paths = false;
  std::vector<uint64_t> reference;
  for (uint32_t threads : StressThreadCounts()) {
    ThreadPool pool(threads);
    EngineOptions options;
    options.pool = &pool;
    options.plan.num_groups = 32;
    options.plan.max_partitions = 36;
    options.plan.threads_sharing_l3 = 4;  // pin the plan across pool sizes
    options.dram_budget_bytes = 10000 * 24;  // 10k walkers per episode
    FlashMobEngine engine(g, options);
    StreamedVisitOracle oracle(g.num_vertices());
    WalkResult result = engine.Run(spec, {&oracle});
    ASSERT_TRUE(engine.plan().has_internal_shuffle());
    ASSERT_GE(result.stats.episodes, 3u);
    ASSERT_EQ(result.visit_counts, oracle.counts()) << threads << " threads";
    if (reference.empty()) {
      reference = std::move(result.visit_counts);
    } else {
      ASSERT_EQ(result.visit_counts, reference) << threads << " threads";
    }
  }
}

TEST_F(ShuffleDeterminismTest, TwoLevelPathMatchesDirectUnderThreads) {
  const Wid n = 40000;
  auto w = StressWalkers(n, graph_.num_vertices(), 0xCAFE, 0.05);
  for (uint32_t threads : StressThreadCounts()) {
    ThreadPool pool(threads);
    Shuffler direct(&plan_, &pool);
    Shuffler two_level(&plan_, &pool);
    std::vector<Vid> sw_a(n), sw_b(n);
    direct.Scatter(w.data(), nullptr, n, sw_a.data(), nullptr);
    two_level.ScatterTwoLevelForTest(w.data(), nullptr, n, sw_b.data(), nullptr);
    ASSERT_EQ(sw_a, sw_b) << threads << " threads";
  }
}

// --- full engine runs under concurrency -------------------------------------

TEST(TsanStressTest, EngineHammerAcrossThreadCounts) {
  // Full engine runs: every worker samples its VPs against shared read-only
  // state (CSR arrays, PS buffers of its own VPs) while writing its disjoint
  // SW region and its VP's visit counts, and the shuffle's scatter/gather run
  // between the stages. node2vec adds the predecessor stream to the shuffle.
  // Correctness bar: bit-identical visit counts across thread counts.
  CsrGraph g = StressGraph(4000);
  for (WalkAlgorithm algorithm :
       {WalkAlgorithm::kDeepWalk, WalkAlgorithm::kNode2Vec}) {
    WalkSpec spec;
    spec.algorithm = algorithm;
    spec.steps = 8;
    spec.num_walkers = 3 * g.num_vertices();
    spec.seed = 77;
    spec.stop_probability = 0.2;  // dead walkers in every step's shuffle
    spec.keep_paths = false;
    std::vector<uint64_t> reference;
    for (uint32_t threads : StressThreadCounts()) {
      ThreadPool pool(threads);
      EngineOptions options;
      options.pool = &pool;
      options.plan.threads_sharing_l3 = 4;  // pin the plan across pool sizes
      FlashMobEngine engine(g, options);
      WalkResult result = engine.Run(spec);
      if (reference.empty()) {
        reference = std::move(result.visit_counts);
      } else {
        ASSERT_EQ(result.visit_counts, reference) << threads << " threads";
      }
    }
  }
}

TEST(TsanStressTest, SqueezedWalksAcrossThreadCounts) {
  // Stop 0.5 on every stress pool: tracked runs squeeze their survivors, each
  // squeeze range packed by its own pool task in one row (node2vec's
  // predecessor row with it), and identity-free runs cut the dead bin from
  // the scan. 60000 walkers span four squeeze ranges. Stop 0.15 squeezes
  // with over a third of the slots live, where the third range's block lands
  // on the second range's slots: the shift that closes the gaps must run
  // after every range is packed, in range order. Counts must equal the
  // 1-thread run's and the streamed oracle's at every thread count.
  CsrGraph g = StressGraph(4000);
  struct Mode {
    const char* name;
    WalkAlgorithm algorithm;
    bool track_identity;
    double stop;
  };
  for (const Mode& mode :
       {Mode{"tracked", WalkAlgorithm::kDeepWalk, true, 0.5},
        Mode{"identity-free", WalkAlgorithm::kDeepWalk, false, 0.5},
        Mode{"node2vec", WalkAlgorithm::kNode2Vec, true, 0.5},
        Mode{"tracked stop 0.15", WalkAlgorithm::kDeepWalk, true, 0.15},
        Mode{"node2vec stop 0.15", WalkAlgorithm::kNode2Vec, true, 0.15}}) {
    WalkSpec spec;
    spec.algorithm = mode.algorithm;
    spec.steps = mode.stop == 0.5 ? 8 : 12;
    spec.num_walkers = 60000;
    spec.seed = 31;
    spec.stop_probability = mode.stop;
    spec.keep_paths = false;
    spec.track_identity = mode.track_identity;
    std::vector<uint64_t> reference;
    for (uint32_t threads : StressThreadCounts()) {
      ThreadPool pool(threads);
      EngineOptions options;
      options.pool = &pool;
      options.plan.threads_sharing_l3 = 4;  // pin the plan across pool sizes
      FlashMobEngine engine(g, options);
      StreamedVisitOracle oracle(g.num_vertices());
      WalkResult result = engine.Run(spec, {&oracle});
      ASSERT_LT(result.stats.slots_scanned,
                uint64_t{spec.num_walkers} * spec.steps * 3 / 4)
          << mode.name;
      ASSERT_EQ(result.visit_counts, oracle.counts())
          << mode.name << ", " << threads << " threads";
      if (reference.empty()) {
        reference = std::move(result.visit_counts);
      } else {
        ASSERT_EQ(result.visit_counts, reference)
            << mode.name << ", " << threads << " threads";
      }
    }
  }
}

}  // namespace
}  // namespace fm
