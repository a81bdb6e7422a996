// Three-level cache hierarchy simulator with inclusive and exclusive LLC policies.
//
// Substitutes for the perf/VTune measurements of Table 5 and Figure 1b (DESIGN.md
// §3): engines run with a CacheSimHook that feeds every logical load/store through
// this model, yielding per-level hit/miss counts per walker step.
//
// The exclusive policy models the Skylake-SP design the paper builds on (§2.3):
// "cache misses will bring data directly into L2 and not L3, with the latter used to
// hold data evicted from L2". The inclusive policy models the older Broadwell design
// for the architectural ablation.
#ifndef SRC_CACHESIM_HIERARCHY_H_
#define SRC_CACHESIM_HIERARCHY_H_

#include <cstdint>

#include "src/cachesim/cache_level.h"
#include "src/util/cache_info.h"

namespace fm {

// Which level serviced an access. Values 1..3 are cache levels; kDram means all
// levels missed.
enum class HitLevel : uint8_t { kL1 = 1, kL2 = 2, kL3 = 3, kDram = 4 };

struct CacheCounters {
  uint64_t accesses = 0;
  uint64_t hits[4] = {0, 0, 0, 0};    // [0]=L1 .. [2]=L3, [3]=DRAM "hits" (=L3 misses)
  uint64_t misses[3] = {0, 0, 0};     // per cache level
  uint64_t dram_lines = 0;            // lines transferred from DRAM

  uint64_t DramBytes(uint32_t line_bytes = 64) const { return dram_lines * line_bytes; }
  void Reset() { *this = CacheCounters{}; }
  void Add(const CacheCounters& other);
};

class CacheHierarchy {
 public:
  // Builds L1/L2/L3 from the geometry; `info.l3_exclusive` selects the LLC policy.
  explicit CacheHierarchy(const CacheInfo& info = PaperCacheInfo());

  // Simulates one access of `bytes` bytes at `addr`; multi-line accesses touch each
  // covered line. Returns the level that serviced the *first* line.
  HitLevel Access(uint64_t addr, uint32_t bytes);

  HitLevel AccessLine(uint64_t line_id);

  const CacheCounters& counters() const { return counters_; }
  void ResetCounters() { counters_.Reset(); }

  uint32_t line_bytes() const { return line_bytes_; }
  bool exclusive_llc() const { return exclusive_; }

  // Structural invariant of the exclusive policy: a line never resides in both L2
  // and L3 (checked by tests).
  bool L2L3Disjoint(uint64_t line_id) const {
    return !(l2_.Contains(line_id) && l3_.Contains(line_id));
  }

 private:
  uint32_t line_bytes_;
  bool exclusive_;
  CacheLevel l1_;
  CacheLevel l2_;
  CacheLevel l3_;
  CacheCounters counters_;
};

}  // namespace fm

#endif  // SRC_CACHESIM_HIERARCHY_H_
