#include "src/cachesim/hierarchy.h"

namespace fm {

void CacheCounters::Add(const CacheCounters& other) {
  accesses += other.accesses;
  for (int i = 0; i < 4; ++i) {
    hits[i] += other.hits[i];
  }
  for (int i = 0; i < 3; ++i) {
    misses[i] += other.misses[i];
  }
  dram_lines += other.dram_lines;
}

CacheHierarchy::CacheHierarchy(const CacheInfo& info)
    : line_bytes_(info.line_bytes),
      exclusive_(info.l3_exclusive),
      l1_({info.l1_bytes, info.l1_ways, info.line_bytes}),
      l2_({info.l2_bytes, info.l2_ways, info.line_bytes}),
      l3_({info.l3_bytes, info.l3_ways, info.line_bytes}) {}

HitLevel CacheHierarchy::AccessLine(uint64_t line_id) {
  ++counters_.accesses;
  if (l1_.Lookup(line_id)) {
    ++counters_.hits[0];
    return HitLevel::kL1;
  }
  ++counters_.misses[0];

  if (l2_.Lookup(line_id)) {
    ++counters_.hits[1];
    // Fill upward into L1; the L1 victim is silently dropped (L1 is inclusive in L2
    // on both microarchitectures for clean lines; dirty writeback traffic is not
    // modelled).
    l1_.Insert(line_id, nullptr);
    return HitLevel::kL2;
  }
  ++counters_.misses[1];

  if (l3_.Lookup(line_id)) {
    ++counters_.hits[2];
    if (exclusive_) {
      // Promotion removes the line from the LLC; the L2 victim moves down into it.
      l3_.Invalidate(line_id);
      uint64_t victim = 0;
      if (l2_.Insert(line_id, &victim)) {
        l3_.Insert(victim, nullptr);
      }
    } else {
      l2_.Insert(line_id, nullptr);
    }
    l1_.Insert(line_id, nullptr);
    return HitLevel::kL3;
  }
  ++counters_.misses[2];
  ++counters_.hits[3];
  ++counters_.dram_lines;

  if (exclusive_) {
    // Skylake-style: DRAM fills go straight to L2 (+L1); L3 only receives L2 victims.
    uint64_t victim = 0;
    if (l2_.Insert(line_id, &victim)) {
      uint64_t l3_victim = 0;
      l3_.Insert(victim, &l3_victim);
    }
  } else {
    // Inclusive: fill every level.
    l3_.Insert(line_id, nullptr);
    l2_.Insert(line_id, nullptr);
  }
  l1_.Insert(line_id, nullptr);
  return HitLevel::kDram;
}

HitLevel CacheHierarchy::Access(uint64_t addr, uint32_t bytes) {
  uint64_t first_line = addr / line_bytes_;
  uint64_t last_line = (addr + (bytes == 0 ? 0 : bytes - 1)) / line_bytes_;
  HitLevel first = AccessLine(first_line);
  for (uint64_t line = first_line + 1; line <= last_line; ++line) {
    AccessLine(line);
  }
  return first;
}

}  // namespace fm
