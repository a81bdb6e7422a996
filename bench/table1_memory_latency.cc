// Table 1: load latency from memory hierarchy levels, by access pattern.
//
// Measures sequential / random / pointer-chasing load latency over working sets
// sized to L1 / L2 / L3 / DRAM on this machine, side by side with the paper's Xeon
// Gold 6126 numbers. The paper's takeaways this table must reproduce:
//   (1) sequential accesses stay cheap at every level,
//   (2) the sequential-vs-random gap explodes at DRAM (~24x in the paper),
//   (3) pointer-chasing in L3 is slower than random DRAM reads.
#include "bench/bench_util.h"
#include "src/cachesim/latency_model.h"
#include "src/mem/membench.h"
#include "src/util/cache_info.h"

int main(int argc, char** argv) {
  using namespace fm;
  BenchArgs args = ParseBenchArgs(argc, argv);
  PrintHeader("Table 1: Load latency from memory hierarchy levels (ns/load)");

  const CacheInfo& info = DetectCacheInfo();
  std::printf("machine caches: L1=%s L2=%s L3=%s\n", HumanBytes(info.l1_bytes).c_str(),
              HumanBytes(info.l2_bytes).c_str(), HumanBytes(info.l3_bytes).c_str());

  MemBenchConfig config;
  config.min_total_accesses = static_cast<uint64_t>(EnvInt64("FM_MEM_ACCESSES", 1 << 22));

  // One measured pass per cell collects the timing and the hardware counters
  // bracketing exactly the access loop, so the LLC-miss table below is
  // *measured* (perf_event_open), not derived from the cache model.
  const MemLatencyTable table = MeasureMemLatencyTable(info, config);
  bool counters_live = false;
  for (const auto& row : table.cells) {
    for (const MemAccessProfile& cell : row) {
      counters_live = counters_live || cell.counters_active;
    }
  }

  const char* patterns[3] = {"Sequential read", "Random read", "Pointer-chasing"};
  std::printf("\n%-17s %10s %10s %10s %10s\n", "Location", "L1C", "L2C", "L3C",
              "LocalMem");
  std::printf("%-17s %10s %10s %10s %10s\n", "(working set)",
              HumanBytes(table.working_set_bytes[0]).c_str(),
              HumanBytes(table.working_set_bytes[1]).c_str(),
              HumanBytes(table.working_set_bytes[2]).c_str(),
              HumanBytes(table.working_set_bytes[3]).c_str());
  for (int p = 0; p < 3; ++p) {
    std::printf("%-17s", patterns[p]);
    for (int l = 0; l < 4; ++l) {
      std::printf(" %8.2fns", table.cells[p][l].ns_per_access);
    }
    std::printf("\n");
  }

  std::printf("\nmeasured LLC misses per access (perf backend: %s):\n",
              counters_live ? "perf" : "noop");
  for (int p = 0; p < 3; ++p) {
    std::printf("%-17s", patterns[p]);
    for (int l = 0; l < 4; ++l) {
      const MemAccessProfile& prof = table.cells[p][l];
      double per_access =
          prof.accesses == 0
              ? 0
              : static_cast<double>(prof.counters.llc_misses()) /
                    static_cast<double>(prof.accesses);
      std::printf(" %8.4f  ", per_access);
    }
    std::printf("\n");
  }

  std::printf("\npaper (Xeon Gold 6126), local columns:\n");
  for (int p = 0; p < 3; ++p) {
    std::printf("%-17s", patterns[p]);
    for (int l = 0; l < 4; ++l) {
      std::printf(" %8.2fns", Table1Reference::kNs[p][l]);
    }
    std::printf("\n");
  }

  double seq_dram = table.cells[0][3].ns_per_access;
  double rand_dram = table.cells[1][3].ns_per_access;
  double chase_l3 = table.cells[2][2].ns_per_access;
  std::printf("\nshape checks: random/seq gap at DRAM = %.1fx (paper: %.1fx);\n",
              rand_dram / seq_dram, 18.35 / 0.76);
  std::printf("pointer-chase@L3 %s random@DRAM (paper: slower)\n",
              chase_l3 > rand_dram ? "slower than" : "faster than");

  if (!args.metrics_path.empty()) {
    BenchTrajectory traj("table1_memory_latency");
    traj.set_backend(counters_live ? "perf" : "noop");
    const char* levels[4] = {"L1C", "L2C", "L3C", "LocalMem"};
    const char* series[3] = {"table1/sequential", "table1/random",
                             "table1/pointer_chase"};
    for (int p = 0; p < 3; ++p) {
      for (int l = 0; l < 4; ++l) {
        traj.Add(series[p], levels[l], table.cells[p][l].ns_per_access,
                 "ns/access");
        traj.AddCounters(std::string(series[p]) + "/" + levels[l],
                         table.cells[p][l].counters);
      }
    }
    MaybeWriteTrajectory(traj, args.metrics_path);
  }
  return 0;
}
