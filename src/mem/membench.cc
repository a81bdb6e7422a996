#include "src/mem/membench.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "src/util/aligned_buffer.h"
#include "src/util/bits.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace fm {
namespace {

// Keeps the compiler from discarding the measured loads.
volatile uint64_t g_sink;

// Counter bracketing for exactly one timed loop: the helpers snapshot the
// (possibly inactive) group right before and after their access loop, so chain
// setup and index-stream generation stay outside the attribution window.
struct CounterBracket {
  explicit CounterBracket(const PerfCounterGroup* group, CounterSample* out)
      : group_(group), out_(out) {
    if (group_ != nullptr) {
      before_ = group_->Read();
    }
  }
  void Close() {
    if (group_ != nullptr && out_ != nullptr) {
      *out_ = group_->Read() - before_;
    }
  }
  const PerfCounterGroup* group_;
  CounterSample* out_;
  CounterSample before_;
};

double MeasureSequential(uint64_t* data, uint64_t words, uint64_t passes,
                         const PerfCounterGroup* group = nullptr,
                         CounterSample* delta = nullptr) {
  uint64_t sum = 0;
  CounterBracket bracket(group, delta);
  Timer timer;
  for (uint64_t p = 0; p < passes; ++p) {
    for (uint64_t i = 0; i < words; ++i) {
      sum += data[i];
    }
  }
  double ns = timer.ElapsedNanos();
  bracket.Close();
  g_sink = sum;
  return ns / static_cast<double>(words * passes);
}

double MeasureRandom(uint64_t* data, uint64_t words, uint64_t accesses,
                     uint64_t seed, const PerfCounterGroup* group = nullptr,
                     CounterSample* delta = nullptr) {
  // Independent random loads: the index stream comes from a xorshift generator whose
  // cost (~1ns) is amortized by issuing 4 loads per draw from disjoint quarters.
  FM_CHECK(IsPowerOfTwo(words));
  uint64_t quarter = words / 4;
  uint64_t mask = quarter - 1;
  XorShiftRng rng(seed);
  uint64_t sum = 0;
  CounterBracket bracket(group, delta);
  Timer timer;
  for (uint64_t i = 0; i < accesses / 4; ++i) {
    uint64_t r = rng.Next();
    sum += data[(r & mask)];
    sum += data[quarter + ((r >> 16) & mask)];
    sum += data[2 * quarter + ((r >> 32) & mask)];
    sum += data[3 * quarter + ((r >> 48) & mask)];
  }
  double ns = timer.ElapsedNanos();
  bracket.Close();
  g_sink = sum;
  return ns / static_cast<double>(accesses / 4 * 4);
}

double MeasurePointerChase(uint64_t* data, uint64_t words, uint64_t accesses,
                           uint64_t seed, const PerfCounterGroup* group = nullptr,
                           CounterSample* delta = nullptr) {
  // Build a single random cycle (Sattolo's algorithm) so each load depends on the
  // previous one; stride granularity is one cache line (8 words) to defeat spatial
  // locality within the chain.
  uint64_t nodes = words / 8;
  std::vector<uint64_t> order(nodes);
  std::iota(order.begin(), order.end(), 0);
  XorShiftRng rng(seed);
  for (uint64_t i = nodes - 1; i > 0; --i) {
    uint64_t j = rng.NextBounded(i);  // Sattolo: j < i, yields one full cycle
    std::swap(order[i], order[j]);
  }
  for (uint64_t i = 0; i < nodes; ++i) {
    data[order[i] * 8] = order[(i + 1) % nodes] * 8;
  }
  uint64_t pos = order[0] * 8;
  CounterBracket bracket(group, delta);
  Timer timer;
  for (uint64_t i = 0; i < accesses; ++i) {
    pos = data[pos];
  }
  double ns = timer.ElapsedNanos();
  bracket.Close();
  g_sink = pos;
  return ns / static_cast<double>(accesses);
}

}  // namespace

// Sets up the buffer, runs a warm-up pass, then times the real pass; a
// per-thread counter group brackets only the timed pass, so the counter deltas
// attribute to exactly the measured accesses.
MemAccessProfile MeasureLoadLatencyProfile(AccessPattern pattern,
                                           uint64_t working_set_bytes,
                                           const MemBenchConfig& config) {
  uint64_t words = PrevPowerOfTwo(std::max<uint64_t>(working_set_bytes / 8, 64));
  AlignedBuffer<uint64_t> buffer(words);
  XorShiftRng rng(config.seed);
  for (uint64_t i = 0; i < words; ++i) {
    buffer[i] = rng.Next() & 0xFFFF;
  }
  uint64_t accesses = std::max<uint64_t>(config.min_total_accesses, words);

  const PerfCounterGroup counters = PerfCounterGroup::OpenForThread(0);
  MemAccessProfile profile;
  switch (pattern) {
    case AccessPattern::kSequential: {
      uint64_t passes = std::max<uint64_t>(1, accesses / words);
      // Warm-up pass, then measure.
      MeasureSequential(buffer.data(), words, 1);
      profile.ns_per_access = MeasureSequential(buffer.data(), words, passes,
                                                &counters, &profile.counters);
      profile.accesses = words * passes;
      break;
    }
    case AccessPattern::kRandom:
      MeasureRandom(buffer.data(), words, words, config.seed);
      profile.ns_per_access =
          MeasureRandom(buffer.data(), words, accesses, config.seed + 1,
                        &counters, &profile.counters);
      profile.accesses = accesses / 4 * 4;
      break;
    case AccessPattern::kPointerChase: {
      // Dependent loads are ~10-100x slower; cap the chain length to bound runtime.
      uint64_t chase = std::max<uint64_t>(words / 8, std::min<uint64_t>(accesses / 8, 1 << 22));
      profile.ns_per_access =
          MeasurePointerChase(buffer.data(), words, chase, config.seed,
                              &counters, &profile.counters);
      profile.accesses = chase;
      break;
    }
  }
  profile.counters_active = counters.active();
  return profile;
}

MemLatencyTable MeasureMemLatencyTable(const CacheInfo& info,
                                       const MemBenchConfig& config) {
  MemLatencyTable table{};
  table.working_set_bytes[0] = info.l1_bytes / 2;
  table.working_set_bytes[1] = info.l2_bytes / 2;
  table.working_set_bytes[2] = info.l3_bytes / 2;
  table.working_set_bytes[3] = info.l3_bytes * 8;
  for (int p = 0; p < 3; ++p) {
    for (int l = 0; l < 4; ++l) {
      table.cells[p][l] = MeasureLoadLatencyProfile(
          static_cast<AccessPattern>(p), table.working_set_bytes[l], config);
    }
  }
  return table;
}

}  // namespace fm
