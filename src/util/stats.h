// Statistics helpers used by tests (distribution checks) and benches (reporting).
#ifndef SRC_UTIL_STATS_H_
#define SRC_UTIL_STATS_H_

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

namespace fm {

double Mean(const std::vector<double>& values);
double StdDev(const std::vector<double>& values);

// p in [0, 100]; linear interpolation between order statistics. Sorts a copy.
//
// Boundary with Log2Histogram: Percentile is for one-shot analytics — a
// sample set you already hold in a vector, read once, exact answer
// (distribution oracles, example programs). Series that accumulate across a
// run (per-step wall time) belong in a Log2Histogram inside the run's tally
// (WalkStats::step_ns), whose percentiles are approximate but O(1) per sample
// and never require buffering the series. If the tally already holds a
// histogram for the quantity, query it instead of rebuilding the series here
// — two aggregations of the same signal will eventually disagree.
double Percentile(std::vector<double> values, double p);

// Log2-bucketed histogram of non-negative samples (latencies in ns): bucket b
// holds values with std::bit_width(v) == b, i.e. [2^(b-1), 2^b), so bucket 0
// is exactly {0} and bucket 64 covers values >= 2^63. Observe is O(1) with no
// division; Percentile interpolates linearly inside the bucket, so an answer
// carries at most one power of two of error — the right trade for latency
// series that span six decades. A plain value with one writer: no atomics.
struct Log2Histogram {
  static constexpr uint32_t kBuckets = 65;

  uint64_t count = 0;
  uint64_t sum = 0;  // wraps on overflow, like any uint64 accumulator
  std::array<uint64_t, kBuckets> buckets{};

  void Observe(uint64_t value) {
    ++buckets[std::bit_width(value)];
    ++count;
    sum += value;
  }

  // p in [0, 100] (clamped). Same rank convention as Percentile above.
  // Returns 0 for an empty histogram.
  double Percentile(double p) const;
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

// Pearson chi-square statistic for observed counts against expected counts.
// Buckets with expected < 1e-12 must have observed == 0 (else returns +inf).
double ChiSquareStatistic(const std::vector<uint64_t>& observed,
                          const std::vector<double>& expected);

// Conservative upper quantile of the chi-square distribution used to accept/reject in
// sampler tests: returns an approximate critical value at the given significance for
// `dof` degrees of freedom (Wilson–Hilferty approximation).
double ChiSquareCriticalValue(uint32_t dof, double significance);

// Convenience: true when observed counts are consistent with the expected
// distribution at the given significance level.
bool ChiSquareTestPasses(const std::vector<uint64_t>& observed,
                         const std::vector<double>& expected,
                         double significance = 0.001);

}  // namespace fm

#endif  // SRC_UTIL_STATS_H_
