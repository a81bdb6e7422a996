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
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/engine.h"
#include "src/core/partition_plan.h"
#include "src/core/shuffle.h"
#include "src/core/walk_observer.h"
#include "src/gen/powerlaw_graph.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/telemetry.h"
#include "src/util/thread_pool.h"
#include "src/util/trace.h"

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

TEST(TsanStressTest, ParallelChunksWorkerSlotsAreExclusive) {
  // Each worker accumulates into its own slot (the per-thread counter-array
  // pattern of CountAndPrefix). Any cross-worker interference is a race TSan
  // reports and a checksum failure here.
  for (uint32_t threads : StressThreadCounts()) {
    ThreadPool pool(threads);
    std::vector<uint64_t> per_worker(pool.thread_count(), 0);
    const uint64_t n = 100003;  // prime: uneven chunk boundaries
    for (int round = 0; round < 20; ++round) {
      pool.ParallelChunks(n, [&](uint64_t begin, uint64_t end, uint32_t worker) {
        per_worker[worker] += end - begin;
      });
    }
    uint64_t covered = 0;
    for (uint64_t c : per_worker) {
      covered += c;
    }
    EXPECT_EQ(covered, 20 * n) << threads << " threads";
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

// --- ShardedVisitCounter merge hammering -------------------------------------

TEST(TsanStressTest, ShardedCounterMergeAcrossThreadCounts) {
  // The engine's counting path in miniature: concurrent chunk callbacks fill
  // per-worker shards — placement via pinned ParallelChunks, samples via
  // dynamically scheduled ParallelFor tasks with kills mixed in — and
  // MergeShards folds the shards on the same pool once per "episode". uint64
  // adds commute, so the merged counts must be exact at every thread count;
  // under TSan this is the main race check for the sharded accumulation.
  const Vid n = 4096;
  const Wid walkers = 100003;  // prime: uneven chunk boundaries
  const uint64_t kTasks = 64;  // dynamic "VP" tasks per sample pass
  std::vector<Vid> start(walkers), sampled(walkers);
  for (Wid j = 0; j < walkers; ++j) {
    start[j] = static_cast<Vid>((j * 2654435761u) % n);
    // Every 7th sample is a kill; kills must not be counted.
    sampled[j] =
        (j % 7 == 0) ? kInvalidVid : static_cast<Vid>((j * 40503u) % n);
  }
  const int kEpisodes = 6;
  const int kStepsPerEpisode = 3;
  std::vector<uint64_t> expected(n, 0);
  for (Wid j = 0; j < walkers; ++j) {
    expected[start[j]] += kEpisodes;
    if (sampled[j] != kInvalidVid) {
      expected[sampled[j]] += kEpisodes * kStepsPerEpisode;
    }
  }

  for (uint32_t threads : StressThreadCounts()) {
    ThreadPool pool(threads);
    ShardedVisitCounter counter(n);
    WalkRunInfo info;
    info.num_vertices = n;
    info.total_walkers = walkers;
    info.num_workers = pool.thread_count();
    info.pool = &pool;
    counter.OnRunBegin(info);
    for (int episode = 0; episode < kEpisodes; ++episode) {
      pool.ParallelChunks(
          walkers, [&](uint64_t begin, uint64_t end, uint32_t worker) {
            counter.OnPlacementChunk(
                static_cast<Wid>(begin),
                std::span<const Vid>(start.data() + begin, end - begin),
                worker);
          });
      for (int step = 0; step < kStepsPerEpisode; ++step) {
        pool.ParallelFor(kTasks, [&](uint64_t task, uint32_t worker) {
          uint64_t begin = task * walkers / kTasks;
          uint64_t end = (task + 1) * walkers / kTasks;
          counter.OnSampleChunk(
              static_cast<uint32_t>(step), static_cast<uint32_t>(task),
              std::span<const Vid>(sampled.data() + begin, end - begin),
              worker);
        });
      }
      counter.MergeShards(&pool);
    }
    EXPECT_EQ(counter.TakeCounts(), expected) << threads << " threads";
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
  // SW region, and the shuffle's scatter/gather and the visit-count shards run
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

// --- telemetry shards under concurrency --------------------------------------

// Dense schedules over the telemetry registry: every pool worker hammers a
// counter and a histogram through the single-writer shard path while the main
// thread snapshots, renders both exporters, and a snapshot writer appends
// JSONL lines from its own thread. Folds use relaxed loads over cells the
// workers write with relaxed stores — TSan confirms the sharding really does
// keep writers disjoint, and the final fold (after the pool barrier) is exact.
TEST(TsanStressTest, TelemetryShardsConcurrentUpdateAndSnapshot) {
  auto& registry = telemetry::TelemetryRegistry::Get();
  registry.ResetForTest();
  telemetry::Counter& counter =
      registry.CounterRef("fm.test.tsan_steps_total");
  telemetry::Gauge& gauge = registry.GaugeRef("fm.test.tsan_level");
  telemetry::Histogram& hist = registry.HistogramRef("fm.test.tsan_ns");

  constexpr uint64_t kTasks = 4096;
  constexpr uint64_t kPerTask = 64;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    // Live snapshots concurrent with the writers: values may lag but must
    // never tear, and the renderers must stay parseable mid-run.
    while (!done.load(std::memory_order_acquire)) {
      uint64_t folded = counter.Value();
      EXPECT_LE(folded, kTasks * kPerTask);
      json::Value doc = json::ParseJson(registry.RenderJsonLine(1));
      EXPECT_EQ(doc.Str("schema"), "fm-telemetry-v1");
      registry.RenderPrometheus();
    }
  });

  ThreadPool pool(8);
  pool.ParallelFor(kTasks, [&](uint64_t task, uint32_t) {
    for (uint64_t i = 0; i < kPerTask; ++i) {
      counter.Add(1);
      hist.Observe(task + i);
    }
    gauge.Set(static_cast<int64_t>(task));
  });
  done.store(true, std::memory_order_release);
  reader.join();

  // The pool barrier ordered every shard store before these folds.
  EXPECT_EQ(counter.Value(), kTasks * kPerTask);
  EXPECT_EQ(hist.Snapshot().count, kTasks * kPerTask);
}

TEST(TsanStressTest, TelemetryWriterThreadConcurrentWithUpdates) {
  auto& registry = telemetry::TelemetryRegistry::Get();
  registry.ResetForTest();
  telemetry::Counter& counter =
      registry.CounterRef("fm.test.tsan_writer_total");

  const std::string path =
      ::testing::TempDir() + "/tsan_telemetry_writer.jsonl";
  telemetry::TelemetrySnapshotWriter writer(path, 1);
  ASSERT_TRUE(writer.Start());

  ThreadPool pool(8);
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(64, [&](uint64_t, uint32_t) { counter.Add(1); });
  }
  writer.Stop();

  EXPECT_EQ(counter.Value(), 50u * 64);
  EXPECT_GE(writer.lines_written(), 1u);
  std::remove(path.c_str());
}

// --- trace ring buffers under concurrency ------------------------------------

// Many threads emit spans into small per-thread rings (forcing overflow) while
// the main thread polls the tracer's live counters — exactly the heartbeat's
// read pattern. After the pool barrier the export must parse and the pushed /
// dropped accounting must be exact. Under TSan this validates the relaxed
// single-writer ring + live-counter-read design.
TEST(TsanStressTest, TraceRingsConcurrentEmitAndLivePoll) {
  constexpr uint64_t kTasks = 20000;
  constexpr size_t kRingCapacity = 64;  // small: force drop-oldest overflow
  Tracer::Get().Reset();
  Tracer::Get().Enable(kRingCapacity);

  std::atomic<bool> done{false};
  std::thread poller([&] {
    // Live polling, concurrent with the writers (relaxed counter reads).
    uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      uint64_t now = Tracer::Get().TotalEvents();
      EXPECT_GE(now, last);  // pushed counters are monotonic
      last = now;
      Tracer::Get().TotalDropped();
    }
  });

  ThreadPool pool(8);
  pool.ParallelFor(kTasks, [](uint64_t task, uint32_t) {
    TraceSpan span("stress", "task");
    span.Arg("task", task);
  });
  done.store(true, std::memory_order_release);
  poller.join();
  Tracer::Get().Disable();

  // The pool barrier ordered every push before these reads: counts are exact.
  EXPECT_EQ(Tracer::Get().TotalEvents(), kTasks);
  EXPECT_GT(Tracer::Get().TotalDropped(), 0u);
  EXPECT_LE(Tracer::Get().TotalEvents() - Tracer::Get().TotalDropped(),
            static_cast<uint64_t>(kRingCapacity) * (8 + 1));

  // Export after quiescence parses and its accounting matches the counters.
  json::Value doc = json::ParseJson(Tracer::Get().ExportJson());
  EXPECT_EQ(doc.At("otherData").Num("dropped_events"),
            static_cast<double>(Tracer::Get().TotalDropped()));
  Tracer::Get().Reset();
}

}  // namespace
}  // namespace fm
