// Annotated synchronization primitives: the only sanctioned mutex/condvar
// types in the tree (enforced by the fmlint raw-mutex rule).
//
// fm::Mutex, fm::CondVar, and fm::MutexLock wrap the std primitives and carry
// Clang Thread Safety Analysis attributes, so lock discipline is checked at
// compile time under Clang (-Werror=thread-safety; see CMakeLists.txt) and
// degrades to zero-cost no-ops on GCC/MSVC. Annotate the state a mutex
// protects with FM_GUARDED_BY(mu_) and functions that expect the lock held
// with FM_REQUIRES(mu_); the analysis then proves every access happens under
// the right lock on every path — a static complement to the TSan build, which
// only sees the schedules a given run happens to execute.
//
// Conventions (DESIGN.md §7e):
//   - Every mutex member names what it protects in a comment, and every
//     protected field carries FM_GUARDED_BY.
//   - Lock with fm::MutexLock (RAII); bare Lock()/Unlock() calls are banned by
//     the fmlint manual-lock rule.
//   - Condition waits loop on the predicate around CondVar::Wait, which
//     requires the mutex held (FM_REQUIRES) and returns with it held.
//   - State intentionally accessed without the mutex (atomics, single-writer
//     protocols) stays unannotated with a comment explaining the protocol.
#ifndef SRC_UTIL_SYNC_H_
#define SRC_UTIL_SYNC_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>

// Thread Safety Analysis attribute macros, after the Clang documentation's
// reference mutex.h. No-ops unless compiling with Clang (the analysis and the
// attributes both exist only there).
#if defined(__clang__) && !defined(SWIG)
#define FM_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define FM_THREAD_ANNOTATION_(x)
#endif

#define FM_CAPABILITY(x) FM_THREAD_ANNOTATION_(capability(x))
#define FM_SCOPED_CAPABILITY FM_THREAD_ANNOTATION_(scoped_lockable)
#define FM_GUARDED_BY(x) FM_THREAD_ANNOTATION_(guarded_by(x))
#define FM_PT_GUARDED_BY(x) FM_THREAD_ANNOTATION_(pt_guarded_by(x))
#define FM_ACQUIRE(...) FM_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define FM_RELEASE(...) FM_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define FM_TRY_ACQUIRE(...) \
  FM_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define FM_REQUIRES(...) FM_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define FM_EXCLUDES(...) FM_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define FM_ACQUIRED_BEFORE(...) \
  FM_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define FM_ACQUIRED_AFTER(...) \
  FM_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
#define FM_RETURN_CAPABILITY(x) FM_THREAD_ANNOTATION_(lock_returned(x))
#define FM_NO_THREAD_SAFETY_ANALYSIS \
  FM_THREAD_ANNOTATION_(no_thread_safety_analysis)

// Marks a function as hot-path code: the per-element kernels whose cache
// residency the whole design rests on (step/sample kernels, shuffle
// scatter/gather scans, presample refill, alias-table draws). The fmlint
// hot-path-* rules enforce, over the function and everything it transitively
// calls, that there is no heap allocation, no mutex acquisition, no blocking
// syscall/IO, and no unjustified per-element division (see DESIGN.md §7f).
// Under Clang this also leaves an `annotate` attribute in the IR for tooling;
// on GCC it compiles to nothing, so -Werror builds are unaffected.
#define FM_HOT_PATH FM_THREAD_ANNOTATION_(annotate("fm_hot_path"))

// Canonical global lock order:
//
//   1. Observer locks (e.g. StreamedVisitOracle::mu_ in tests/test_util.h)
//      — outermost; taken while no service lock is held.
//   2. Utility service locks: ThreadPool::mutex_ (src/util/thread_pool.cc).
//   3. g_log_mutex (src/util/logging.cc) — the global leaf; logging may be
//      called from anywhere, so it must never acquire another lock.
//
// New locks slot into this list (top of the file that defines them) before
// any code nests them. Today no code path holds two of these locks at once.
// Clang Thread Safety Analysis (-Werror=thread-safety) checks every
// acquisition against these annotations, and TSan, which runs the full test
// suite in CI, reports any lock-order inversion a test executes.

namespace fm {

// Plain mutual-exclusion capability. Prefer MutexLock over calling
// Lock/Unlock directly (the manual-lock lint rule enforces this); the methods
// exist for the RAII guard and for rare structured-release patterns.
class FM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() FM_ACQUIRE() { mu_.lock(); }
  void Unlock() FM_RELEASE() { mu_.unlock(); }
  bool TryLock() FM_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII scoped lock over fm::Mutex (the scoped_lockable pattern: construction
// acquires, destruction releases, and the analysis tracks the region).
class FM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) FM_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() FM_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable bound to fm::Mutex. Wait requires the mutex held and
// returns with it held (it is released for the duration of the block, like
// std::condition_variable::wait, but the capability stays with the caller for
// analysis purposes — the predicate re-check loop makes this sound). Notify
// does not require the mutex.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) FM_REQUIRES(mu) {
    // Adopt the already-held std::mutex for the wait, then hand ownership
    // back so the caller's MutexLock (or scope) remains the releaser.
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace fm

#endif  // SRC_UTIL_SYNC_H_
