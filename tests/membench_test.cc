#include "src/mem/membench.h"

#include <gtest/gtest.h>

namespace fm {
namespace {

// Wall-clock microbenchmarks on a shared CI box are noisy; these tests assert only
// robust orderings with generous slack, not absolute values.

MemBenchConfig FastConfig() {
  MemBenchConfig config;
  config.min_total_accesses = 1 << 19;
  return config;
}

double LatencyNs(AccessPattern pattern, uint64_t working_set_bytes) {
  return MeasureLoadLatencyProfile(pattern, working_set_bytes, FastConfig())
      .ns_per_access;
}

TEST(MemBenchTest, AllLatenciesPositive) {
  for (int p = 0; p < 3; ++p) {
    double ns = LatencyNs(static_cast<AccessPattern>(p), 64 * 1024);
    EXPECT_GT(ns, 0.0) << "pattern " << p;
    EXPECT_LT(ns, 10000.0) << "pattern " << p;
  }
}

TEST(MemBenchTest, PointerChaseSlowerThanSequentialAtDram) {
  uint64_t ws = 128ull * 1024 * 1024;  // far beyond any cache
  double seq = LatencyNs(AccessPattern::kSequential, ws);
  double chase = LatencyNs(AccessPattern::kPointerChase, ws);
  // Paper's gap is ~150x; any healthy machine shows at least 4x.
  EXPECT_GT(chase, seq * 4);
}

TEST(MemBenchTest, PointerChaseDegradesWithWorkingSet) {
  double small = LatencyNs(AccessPattern::kPointerChase, 16 * 1024);
  double large = LatencyNs(AccessPattern::kPointerChase, 256ull * 1024 * 1024);
  EXPECT_GT(large, small * 2);
}

TEST(MemBenchTest, FullTableHasConsistentShape) {
  CacheInfo info;  // paper geometry; working sets derive from it
  MemBenchConfig config = FastConfig();
  config.min_total_accesses = 1 << 18;
  MemLatencyTable table = MeasureMemLatencyTable(info, config);
  for (int l = 0; l < 4; ++l) {
    EXPECT_GT(table.working_set_bytes[l], 0u);
    for (int p = 0; p < 3; ++p) {
      EXPECT_GT(table.cells[p][l].ns_per_access, 0.0);
      EXPECT_GT(table.cells[p][l].accesses, 0u);
    }
  }
  // Sequential streaming stays cheap even at DRAM (the FlashMob premise).
  EXPECT_LT(table.cells[0][3].ns_per_access,
            table.cells[2][3].ns_per_access);
}

}  // namespace
}  // namespace fm
