#include "src/util/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/logging.h"

namespace fm {

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0;
  }
  double sum = 0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double StdDev(const std::vector<double>& values) {
  if (values.size() < 2) {
    return 0;
  }
  double m = Mean(values);
  double acc = 0;
  for (double v : values) {
    acc += (v - m) * (v - m);
  }
  return std::sqrt(acc / static_cast<double>(values.size() - 1));
}

double Percentile(std::vector<double> values, double p) {
  FM_CHECK(!values.empty());
  FM_CHECK(p >= 0 && p <= 100);
  std::sort(values.begin(), values.end());
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] * (1 - frac) + values[hi] * frac;
}

double Log2Histogram::Percentile(double p) const {
  if (count == 0) {
    return 0.0;
  }
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(count - 1);
  uint64_t seen = 0;
  for (uint32_t b = 0; b < kBuckets; ++b) {
    const uint64_t c = buckets[b];
    if (c == 0) {
      continue;
    }
    if (rank < static_cast<double>(seen + c) ||
        seen + c == count /* last non-empty bucket */) {
      if (b == 0) {
        return 0.0;
      }
      const double lo = std::exp2(static_cast<double>(b - 1));
      const double hi = std::exp2(static_cast<double>(b)) - 1.0;
      const double frac = std::clamp(
          (rank - static_cast<double>(seen)) / static_cast<double>(c), 0.0,
          1.0);
      return lo + frac * (hi - lo);
    }
    seen += c;
  }
  return 0.0;  // unreachable: count > 0 means some bucket is non-empty
}

double ChiSquareStatistic(const std::vector<uint64_t>& observed,
                          const std::vector<double>& expected) {
  FM_CHECK(observed.size() == expected.size());
  double stat = 0;
  for (size_t i = 0; i < observed.size(); ++i) {
    if (expected[i] < 1e-12) {
      if (observed[i] != 0) {
        return std::numeric_limits<double>::infinity();
      }
      continue;
    }
    double diff = static_cast<double>(observed[i]) - expected[i];
    stat += diff * diff / expected[i];
  }
  return stat;
}

double ChiSquareCriticalValue(uint32_t dof, double significance) {
  FM_CHECK(dof >= 1);
  FM_CHECK(significance > 0 && significance < 1);
  // Wilson–Hilferty: chi2_q(k) ~= k * (1 - 2/(9k) + z_q * sqrt(2/(9k)))^3 where z_q is
  // the standard normal quantile at (1 - significance). Invert the normal CDF with the
  // Beasley–Springer–Moro rational approximation (sufficient accuracy for tests).
  double p = 1.0 - significance;
  // Moro's inverse normal approximation.
  static const double a[4] = {2.50662823884, -18.61500062529, 41.39119773534,
                              -25.44106049637};
  static const double b[4] = {-8.47351093090, 23.08336743743, -21.06224101826,
                              3.13082909833};
  static const double c[9] = {0.3374754822726147, 0.9761690190917186,
                              0.1607979714918209, 0.0276438810333863,
                              0.0038405729373609, 0.0003951896511919,
                              0.0000321767881768, 0.0000002888167364,
                              0.0000003960315187};
  double y = p - 0.5;
  double z;
  if (std::fabs(y) < 0.42) {
    double r = y * y;
    z = y * (((a[3] * r + a[2]) * r + a[1]) * r + a[0]) /
        ((((b[3] * r + b[2]) * r + b[1]) * r + b[0]) * r + 1.0);
  } else {
    double r = (y > 0) ? 1.0 - p : p;
    r = std::log(-std::log(r));
    double acc = c[8];
    for (int i = 7; i >= 0; --i) {
      acc = acc * r + c[i];
    }
    z = (y > 0) ? acc : -acc;
  }
  double k = static_cast<double>(dof);
  double term = 1.0 - 2.0 / (9.0 * k) + z * std::sqrt(2.0 / (9.0 * k));
  return k * term * term * term;
}

bool ChiSquareTestPasses(const std::vector<uint64_t>& observed,
                         const std::vector<double>& expected,
                         double significance) {
  // Degrees of freedom: buckets with nonzero expectation, minus one.
  uint32_t buckets = 0;
  for (double e : expected) {
    if (e >= 1e-12) {
      ++buckets;
    }
  }
  if (buckets < 2) {
    return true;
  }
  double stat = ChiSquareStatistic(observed, expected);
  return stat <= ChiSquareCriticalValue(buckets - 1, significance);
}

}  // namespace fm
