// One set-associative, LRU cache level of the software cache simulator.
#ifndef SRC_CACHESIM_CACHE_LEVEL_H_
#define SRC_CACHESIM_CACHE_LEVEL_H_

#include <cstdint>
#include <vector>

namespace fm {

struct CacheLevelConfig {
  uint64_t size_bytes = 32 * 1024;
  uint32_t ways = 8;
  uint32_t line_bytes = 64;
};

class CacheLevel {
 public:
  explicit CacheLevel(const CacheLevelConfig& config);

  // True if the line containing `line_id` (byte address / line size) is present;
  // touches LRU state on hit.
  bool Lookup(uint64_t line_id);

  // Inserts the line, evicting the LRU way if the set is full. Returns true and sets
  // *evicted when an eviction happened.
  bool Insert(uint64_t line_id, uint64_t* evicted);

  // Removes the line if present (used by the exclusive-LLC policy when promoting a
  // line from L3 back to L2). Returns true if the line was present.
  bool Invalidate(uint64_t line_id);

  bool Contains(uint64_t line_id) const;

  uint32_t sets() const { return sets_; }
  uint32_t ways() const { return ways_; }
  uint64_t size_bytes() const { return static_cast<uint64_t>(sets_) * ways_ * line_bytes_; }
  uint64_t resident_lines() const;

 private:
  struct Way {
    uint64_t tag = 0;
    uint64_t stamp = 0;  // LRU timestamp; 0 = invalid
  };

  uint32_t SetIndex(uint64_t line_id) const { return static_cast<uint32_t>(line_id & (sets_ - 1)); }

  uint32_t sets_;
  uint32_t ways_;
  uint32_t line_bytes_;
  uint64_t clock_ = 0;
  std::vector<Way> entries_;  // sets_ * ways_, set-major
};

}  // namespace fm

#endif  // SRC_CACHESIM_CACHE_LEVEL_H_
