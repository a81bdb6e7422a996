#include "src/util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/util/rng.h"

namespace fm {
namespace {

TEST(StatsTest, MeanAndStdDev) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({2.0, 4.0, 6.0}), 4.0);
  EXPECT_DOUBLE_EQ(StdDev({5.0}), 0.0);
  EXPECT_NEAR(StdDev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}), 2.138, 0.001);
}

TEST(StatsTest, Percentile) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 2.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 99), 7.0);
}

TEST(ChiSquareTest, ExactStatistic) {
  // Observed 60/40 vs expected 50/50: chi2 = 100/50 + 100/50 = 4.
  EXPECT_DOUBLE_EQ(ChiSquareStatistic({60, 40}, {50.0, 50.0}), 4.0);
}

TEST(ChiSquareTest, ZeroExpectationHandling) {
  EXPECT_TRUE(std::isinf(ChiSquareStatistic({1, 99}, {0.0, 100.0})));
  EXPECT_DOUBLE_EQ(ChiSquareStatistic({0, 100}, {0.0, 100.0}), 0.0);
}

TEST(ChiSquareTest, CriticalValuesMatchTables) {
  // Reference values from standard chi-square tables.
  // Wilson-Hilferty is weakest at dof=1 (~2.5% error); tolerate it.
  EXPECT_NEAR(ChiSquareCriticalValue(1, 0.05), 3.841, 0.15);
  EXPECT_NEAR(ChiSquareCriticalValue(10, 0.05), 18.307, 0.2);
  EXPECT_NEAR(ChiSquareCriticalValue(100, 0.05), 124.34, 1.0);
  EXPECT_NEAR(ChiSquareCriticalValue(5, 0.001), 20.52, 0.3);
}

TEST(ChiSquareTest, AcceptsTrueDistribution) {
  XorShiftRng rng(3);
  std::vector<uint64_t> observed(10, 0);
  const uint64_t draws = 1 << 18;
  for (uint64_t i = 0; i < draws; ++i) {
    ++observed[rng.NextBounded(10)];
  }
  std::vector<double> expected(10, draws / 10.0);
  EXPECT_TRUE(ChiSquareTestPasses(observed, expected));
}

TEST(ChiSquareTest, RejectsWrongDistribution) {
  // Heavily skewed observations against a uniform expectation.
  std::vector<uint64_t> observed{5000, 1000, 1000, 1000};
  std::vector<double> expected(4, 2000.0);
  EXPECT_FALSE(ChiSquareTestPasses(observed, expected));
}

TEST(Log2HistogramTest, BucketBoundariesFollowBitWidth) {
  Log2Histogram hist;
  // bucket b holds values with bit_width(v) == b: 0 -> 0, 1 -> 1,
  // {2,3} -> 2, {4..7} -> 3, and the first value of each power of two
  // starts a new bucket.
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{2}, uint64_t{3},
                     uint64_t{4}, uint64_t{7}, uint64_t{8}, uint64_t{1023},
                     uint64_t{1024}, ~uint64_t{0}}) {
    hist.Observe(v);
  }
  EXPECT_EQ(hist.count, 10u);
  EXPECT_EQ(hist.buckets[0], 1u);   // {0}
  EXPECT_EQ(hist.buckets[1], 1u);   // {1}
  EXPECT_EQ(hist.buckets[2], 2u);   // {2,3}
  EXPECT_EQ(hist.buckets[3], 2u);   // {4..7}
  EXPECT_EQ(hist.buckets[4], 1u);   // {8..15}
  EXPECT_EQ(hist.buckets[10], 1u);  // {512..1023}
  EXPECT_EQ(hist.buckets[11], 1u);  // {1024..2047}
  EXPECT_EQ(hist.buckets[64], 1u);  // >= 2^63
  uint64_t expected_sum = 0 + 1 + 2 + 3 + 4 + 7 + 8 + 1023 + 1024;
  expected_sum += ~uint64_t{0};  // wraps, like the histogram's own sum
  EXPECT_EQ(hist.sum, expected_sum);
}

TEST(Log2HistogramTest, EmptyHistogramPercentileIsZero) {
  Log2Histogram hist;
  EXPECT_EQ(hist.count, 0u);
  EXPECT_EQ(hist.Percentile(50), 0.0);
  EXPECT_EQ(hist.Mean(), 0.0);
}

TEST(Log2HistogramTest, PercentileWithinOnePowerOfTwoOfExact) {
  Log2Histogram hist;
  std::vector<double> exact;
  // A spread that crosses several buckets, with repeats.
  for (uint64_t v : {3u, 5u, 9u, 17u, 17u, 100u, 1000u, 5000u, 70000u,
                     70000u, 70000u, 1000000u}) {
    hist.Observe(v);
    exact.push_back(static_cast<double>(v));
  }
  std::vector<double> sorted = exact;
  std::sort(sorted.begin(), sorted.end());
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    const double approx = hist.Percentile(p);
    // Percentile interpolates between order statistics, which can land far
    // from any sample when ranks straddle a gap; the log2 buckets only
    // promise one power-of-two of error against the *samples*. So bound
    // against the order statistics that bracket the rank.
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const double lo = sorted[static_cast<size_t>(rank)];
    const double hi = sorted[static_cast<size_t>(std::ceil(rank))];
    EXPECT_GE(approx, lo / 2) << "p" << p;
    EXPECT_LE(approx, hi * 2) << "p" << p;
    // And the exact interpolated answer stays inside the same bracket, so
    // the two implementations agree up to bucket quantization.
    const double truth = Percentile(exact, p);
    EXPECT_GE(truth, lo);
    EXPECT_LE(truth, hi);
  }
  // Extremes pin to the occupied bucket range.
  EXPECT_GE(hist.Percentile(0), 2.0);        // smallest value 3 is in [2,3]
  EXPECT_LE(hist.Percentile(100), 1 << 20);  // largest is in [2^19, 2^20)
}

}  // namespace
}  // namespace fm
