// Fixed-size thread pool with a blocking ParallelFor.
//
// FlashMob's sample and shuffle stages both decompose into independent tasks over
// disjoint array regions (§4.3: "threads work on disjoint array areas, simplifying
// synchronization and eliminating the needs for locks"), so a dynamic
// parallel-for over caller-cut tasks is all the engine needs.
#ifndef SRC_UTIL_THREAD_POOL_H_
#define SRC_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "src/util/sync.h"

namespace fm {

class ThreadPool {
 public:
  // `threads` == 0 picks std::thread::hardware_concurrency().
  explicit ThreadPool(uint32_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t thread_count() const { return static_cast<uint32_t>(workers_.size()) + 1; }

  // Runs body(task_index, worker_index) for task_index in [0, tasks), distributing
  // tasks dynamically (atomic counter). Blocks until all tasks complete. The calling
  // thread participates as worker 0. Not reentrant.
  void ParallelFor(uint64_t tasks,
                   const std::function<void(uint64_t, uint32_t)>& body);

  // Returns the global pool (FM_THREADS env var, default hardware concurrency).
  static ThreadPool& Global();

  // Kernel thread ids of the spawned workers (the calling thread, which
  // participates as worker 0, is not included — measure it as tid 0 yourself).
  // Blocks briefly until every worker has registered its tid at startup.
  // Linux-only; returns an empty vector elsewhere. Used by StagePerfMonitor to
  // open per-thread hardware counter groups (src/util/perf_counters.h).
  std::vector<int32_t> WorkerSystemTids() const;

 private:
  void WorkerLoop(uint32_t worker_index);
  // Pulls tasks off next_task_ until the job is drained. The job pointer and
  // task count are snapshots taken under mutex_ by the caller, so this runs
  // entirely lock-free.
  void RunJob(const std::function<void(uint64_t, uint32_t)>& job,
              uint64_t tasks, uint32_t worker_index);

  std::vector<std::thread> workers_;
  // Slot i-1 for worker i. Single-writer protocol, not mutex-guarded: each
  // worker writes only its own slot before the tids_registered_ release
  // increment, and WorkerSystemTids reads only after the matching acquire.
  std::vector<int32_t> worker_tids_;
  std::atomic<uint32_t> tids_registered_{0};

  // mutex_ protects the job handshake: publication of a new job (epoch bump),
  // the workers-running completion count, and shutdown.
  Mutex mutex_;
  CondVar wake_cv_;
  CondVar done_cv_;
  const std::function<void(uint64_t, uint32_t)>* job_ FM_GUARDED_BY(mutex_) =
      nullptr;
  uint64_t job_tasks_ FM_GUARDED_BY(mutex_) = 0;
  uint64_t job_epoch_ FM_GUARDED_BY(mutex_) = 0;
  uint32_t workers_running_ FM_GUARDED_BY(mutex_) = 0;
  bool shutdown_ FM_GUARDED_BY(mutex_) = false;
  // Hot-path task cursor; deliberately outside the mutex.
  std::atomic<uint64_t> next_task_{0};
};

}  // namespace fm

#endif  // SRC_UTIL_THREAD_POOL_H_
