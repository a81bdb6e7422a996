#include "src/util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace fm {
namespace {

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  const uint64_t tasks = 10000;
  std::vector<std::atomic<int>> hits(tasks);
  pool.ParallelFor(tasks, [&](uint64_t t, uint32_t) { ++hits[t]; });
  for (uint64_t t = 0; t < tasks; ++t) {
    ASSERT_EQ(hits[t].load(), 1) << t;
  }
}

TEST(ThreadPoolTest, ZeroTasksIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [&](uint64_t, uint32_t) { FAIL(); });
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(100, [&](uint64_t t, uint32_t worker) {
    EXPECT_EQ(worker, 0u);
    sum += t;
  });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPoolTest, WorkerIndicesAreInRange) {
  ThreadPool pool(4);
  std::atomic<bool> ok{true};
  pool.ParallelFor(1000, [&](uint64_t, uint32_t worker) {
    if (worker >= pool.thread_count()) {
      ok = false;
    }
  });
  EXPECT_TRUE(ok.load());
}

TEST(ThreadPoolTest, SequentialJobsReuseWorkers) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<uint64_t> sum{0};
    pool.ParallelFor(64, [&](uint64_t t, uint32_t) { sum += t; });
    ASSERT_EQ(sum.load(), 2016u);
  }
}

TEST(ThreadPoolTest, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::Global(), &ThreadPool::Global());
  EXPECT_GE(ThreadPool::Global().thread_count(), 1u);
}

// --- edge cases the TSan stress suite relies on being pinned down ------------

TEST(ThreadPoolEdgeTest, SingleTaskRunsInlineOnCaller) {
  ThreadPool pool(4);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.ParallelFor(1, [&](uint64_t t, uint32_t worker) {
    EXPECT_EQ(t, 0u);
    EXPECT_EQ(worker, 0u);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPoolEdgeTest, CompletionIsABarrier) {
  // Every write performed inside a job must be visible (without atomics) after
  // ParallelFor returns — the done_cv_ handshake is the happens-before edge the
  // shuffle stages depend on.
  ThreadPool pool(4);
  const uint64_t n = 100000;
  std::vector<uint64_t> out(n, 0);
  for (int round = 1; round <= 5; ++round) {
    pool.ParallelFor(n, [&](uint64_t t, uint32_t) {
      out[t] = t + static_cast<uint64_t>(round);
    });
    for (uint64_t t = 0; t < n; ++t) {
      ASSERT_EQ(out[t], t + static_cast<uint64_t>(round));
    }
  }
}

TEST(ThreadPoolEdgeTest, AlternatingEmptyAndFullJobs) {
  // A zero-task job between real jobs must not disturb the epoch handshake.
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    pool.ParallelFor(0, [&](uint64_t, uint32_t) { FAIL(); });
    std::atomic<uint64_t> count{0};
    pool.ParallelFor(17, [&](uint64_t, uint32_t) { ++count; });
    ASSERT_EQ(count.load(), 17u);
  }
}

TEST(ThreadPoolEdgeTest, NestedUseOfDistinctPools) {
  // ParallelFor is not reentrant on one pool, but a job may drive a different
  // pool — the pattern the engine uses for per-VP inner parallelism.
  ThreadPool outer(2);
  ThreadPool inner(2);
  std::atomic<uint64_t> total{0};
  outer.ParallelFor(4, [&](uint64_t, uint32_t) {
    // Only worker 0 (the caller) may submit to `inner`: submission from two
    // outer workers at once would race on inner's job slot by design.
    static Mutex submit_mutex;
    MutexLock lock(submit_mutex);
    inner.ParallelFor(8, [&](uint64_t, uint32_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 32u);
}

}  // namespace
}  // namespace fm
