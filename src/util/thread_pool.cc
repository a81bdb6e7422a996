#include "src/util/thread_pool.h"

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "src/util/env.h"
#include "src/util/logging.h"

namespace fm {

ThreadPool::ThreadPool(uint32_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) {
      threads = 1;
    }
  }
  // The calling thread acts as worker 0; spawn the rest.
  workers_.reserve(threads - 1);
  worker_tids_.assign(threads - 1, 0);
  for (uint32_t i = 1; i < threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
  }
  wake_cv_.NotifyAll();
  for (auto& t : workers_) {
    t.join();
  }
}

void ThreadPool::WorkerLoop(uint32_t worker_index) {
#if defined(__linux__)
  worker_tids_[worker_index - 1] = static_cast<int32_t>(syscall(SYS_gettid));
#endif
  tids_registered_.fetch_add(1, std::memory_order_release);
  uint64_t seen_epoch = 0;
  while (true) {
    // Snapshot the job under the lock; the job body itself runs without it.
    const std::function<void(uint64_t, uint32_t)>* job = nullptr;
    uint64_t tasks = 0;
    {
      MutexLock lock(mutex_);
      while (!shutdown_ && job_epoch_ == seen_epoch) {
        wake_cv_.Wait(mutex_);
      }
      if (shutdown_) {
        return;
      }
      seen_epoch = job_epoch_;
      job = job_;
      tasks = job_tasks_;
    }
    RunJob(*job, tasks, worker_index);
    {
      MutexLock lock(mutex_);
      if (--workers_running_ == 0) {
        done_cv_.NotifyAll();
      }
    }
  }
}

void ThreadPool::RunJob(const std::function<void(uint64_t, uint32_t)>& job,
                        uint64_t tasks, uint32_t worker_index) {
  while (true) {
    // relaxed: pure fetch-add task dispenser; the claimed index carries no
    // payload, and completion ordering is provided by the done_cv_ handshake.
    uint64_t t = next_task_.fetch_add(1, std::memory_order_relaxed);
    if (t >= tasks) {
      return;
    }
    job(t, worker_index);
  }
}

void ThreadPool::ParallelFor(uint64_t tasks,
                             const std::function<void(uint64_t, uint32_t)>& body) {
  if (tasks == 0) {
    return;
  }
  if (workers_.empty() || tasks == 1) {
    for (uint64_t t = 0; t < tasks; ++t) {
      body(t, 0);
    }
    return;
  }
  {
    MutexLock lock(mutex_);
    FM_CHECK_MSG(job_ == nullptr, "ParallelFor is not reentrant");
    job_ = &body;
    job_tasks_ = tasks;
    // relaxed: the reset is ordered by the epoch bump below, whose mutex
    // release/acquire pair publishes it before any worker's fetch_add.
    next_task_.store(0, std::memory_order_relaxed);
    workers_running_ = static_cast<uint32_t>(workers_.size());
    ++job_epoch_;
  }
  wake_cv_.NotifyAll();
  RunJob(body, tasks, 0);
  {
    MutexLock lock(mutex_);
    while (workers_running_ != 0) {
      done_cv_.Wait(mutex_);
    }
    job_ = nullptr;
  }
}

std::vector<int32_t> ThreadPool::WorkerSystemTids() const {
#if defined(__linux__)
  // Workers register before their first wait; spin until all have (startup is
  // microseconds, and this is only called once per monitored run).
  while (tids_registered_.load(std::memory_order_acquire) < workers_.size()) {
    std::this_thread::yield();
  }
  return worker_tids_;
#else
  return {};
#endif
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool(
      static_cast<uint32_t>(EnvInt64("FM_THREADS", 0)));
  return pool;
}

}  // namespace fm
