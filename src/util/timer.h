// Monotonic wall-clock timing helpers.
#ifndef SRC_UTIL_TIMER_H_
#define SRC_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace fm {

// Steady-clock nanoseconds since an arbitrary epoch: the clock Timer reads,
// for code that keeps raw timestamps (the progress heartbeat). The fmlint
// raw-clock rule allows clock reads only here and in perf_counters.cc, so
// every duration in the tree comes from this one clock.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Stopwatch over the steady clock. Accumulates across Start/Stop pairs.
class Timer {
 public:
  Timer() { Start(); }

  void Start() { start_ = Clock::now(); }

  // Returns the elapsed seconds of the current lap, folds them into the
  // total, and restarts the lap — consecutive Lap() calls therefore partition
  // wall time contiguously and TotalSeconds() is exactly the sum of the
  // returned laps (tests/timer_test.cc).
  double Lap() {
    double lap = Elapsed();
    total_ += lap;
    Start();
    return lap;
  }

  // Seconds since the last Start().
  double Elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedNanos() const { return Elapsed() * 1e9; }
  double TotalSeconds() const { return total_; }
  void Reset() {
    total_ = 0;
    Start();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
  double total_ = 0;
};

}  // namespace fm

#endif  // SRC_UTIL_TIMER_H_
