// Latency model mapping cache simulator outcomes to time estimates.
//
// Default latencies are the paper's Table 1 measurements on the Xeon Gold 6126
// (random-read column — the pattern cache misses in the walk actually follow); they
// can be replaced by the values measured on the current machine by the Table 1
// microbenchmark (mem/membench.h). Used to derive the "bound time" rows of Table 5
// from simulated hit counts.
#ifndef SRC_CACHESIM_LATENCY_MODEL_H_
#define SRC_CACHESIM_LATENCY_MODEL_H_

#include "src/cachesim/hierarchy.h"

namespace fm {

struct LatencyModel {
  // ns per access serviced at each location (Table 1 "Random read" row).
  double l1_ns = 0.77;
  double l2_ns = 0.95;
  double l3_ns = 2.60;
  double dram_ns = 18.35;
  // Sequential-read ns per access (Table 1 first row), for streaming estimates.
  double seq_ns = 0.44;

  // Estimated total data-access time for a set of counters, in ns.
  double TotalNs(const CacheCounters& counters) const;

  // Time attributable to each hierarchy level (the Table 5 "bound" decomposition):
  // accesses serviced at a level cost that level's latency; level index 0..3 =
  // L1/L2/L3/DRAM.
  double BoundNs(const CacheCounters& counters, int level) const;
};

// Table 1 reference values (the paper's measurements) for all nine pattern/level
// combinations, used by the Table 1 bench for side-by-side reporting.
struct Table1Reference {
  // [pattern][location]: pattern 0=sequential, 1=random, 2=pointer-chase;
  // location 0=L1, 1=L2, 2=L3, 3=local DRAM, 4=remote DRAM.
  static constexpr double kNs[3][5] = {
      {0.42, 0.41, 0.44, 0.76, 1.51},
      {0.77, 0.95, 2.60, 18.35, 24.35},
      {1.69, 5.26, 19.26, 116.90, 194.26},
  };
};

}  // namespace fm

#endif  // SRC_CACHESIM_LATENCY_MODEL_H_
