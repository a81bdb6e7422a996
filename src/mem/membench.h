// Memory-hierarchy load-latency microbenchmarks (Table 1).
//
// Measures ns/load for the three access patterns the paper contrasts (§2.3):
//   - sequential read  : streaming scan, hardware prefetch friendly
//   - random read      : independent random-indexed loads (throughput-limited)
//   - pointer chasing  : dependent loads along a random permutation cycle
//                        (latency-limited; the pattern existing walk engines incur)
// over working sets sized to sit in L1 / L2 / L3 / DRAM. These curves justify
// FlashMob's whole design: the sequential-vs-random gap grows ~24x at DRAM, and
// pointer-chasing inside L3 is slower than random DRAM reads.
#ifndef SRC_MEM_MEMBENCH_H_
#define SRC_MEM_MEMBENCH_H_

#include <cstdint>

#include "src/util/cache_info.h"
#include "src/util/perf_counters.h"

namespace fm {

enum class AccessPattern { kSequential = 0, kRandom = 1, kPointerChase = 2 };

struct MemBenchConfig {
  uint64_t min_total_accesses = 1 << 22;  // per measurement
  uint64_t seed = 42;
};

// ns per load for `pattern` over a working set of `working_set_bytes`, plus
// hardware counters attributed to exactly the timed access loop (buffer setup
// and the warm-up pass are excluded). The Table 1 reproduction uses this to
// report *measured* LLC-miss rates next to the timings; `counters_active` is
// false (and counters all-zero) under the noop perf backend.
struct MemAccessProfile {
  double ns_per_access = 0;
  uint64_t accesses = 0;
  CounterSample counters;
  bool counters_active = false;
};

MemAccessProfile MeasureLoadLatencyProfile(AccessPattern pattern,
                                           uint64_t working_set_bytes,
                                           const MemBenchConfig& config = {});

struct MemLatencyTable {
  // [pattern][level]: level 0..3 = L1/L2/L3/DRAM working sets.
  MemAccessProfile cells[3][4];
  uint64_t working_set_bytes[4];
};

// Runs the full 3x4 grid, one MeasureLoadLatencyProfile per cell. Working
// sets: L1/2, L2/2, L3/2 and 8x L3 (comfortably inside/outside each level).
MemLatencyTable MeasureMemLatencyTable(const CacheInfo& info,
                                       const MemBenchConfig& config = {});

}  // namespace fm

#endif  // SRC_MEM_MEMBENCH_H_
