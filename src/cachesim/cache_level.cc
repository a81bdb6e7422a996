#include "src/cachesim/cache_level.h"

#include "src/util/bits.h"
#include "src/util/logging.h"

namespace fm {

CacheLevel::CacheLevel(const CacheLevelConfig& config)
    : ways_(config.ways), line_bytes_(config.line_bytes) {
  FM_CHECK(config.ways >= 1);
  FM_CHECK(IsPowerOfTwo(config.line_bytes));
  uint64_t lines = config.size_bytes / config.line_bytes;
  uint64_t sets = lines / config.ways;
  // Round the set count down to a power of two so the index mask works; real caches
  // (e.g. the 19.75MB / 11-way LLC) have non-power-of-two capacity via the way count,
  // which we preserve exactly.
  sets = sets == 0 ? 1 : PrevPowerOfTwo(sets);
  sets_ = static_cast<uint32_t>(sets);
  entries_.assign(static_cast<size_t>(sets_) * ways_, Way{});
}

bool CacheLevel::Lookup(uint64_t line_id) {
  Way* set = &entries_[static_cast<size_t>(SetIndex(line_id)) * ways_];
  for (uint32_t w = 0; w < ways_; ++w) {
    if (set[w].stamp != 0 && set[w].tag == line_id) {
      set[w].stamp = ++clock_;
      return true;
    }
  }
  return false;
}

bool CacheLevel::Insert(uint64_t line_id, uint64_t* evicted) {
  Way* set = &entries_[static_cast<size_t>(SetIndex(line_id)) * ways_];
  uint32_t victim = 0;
  uint64_t oldest = ~uint64_t{0};
  for (uint32_t w = 0; w < ways_; ++w) {
    if (set[w].stamp != 0 && set[w].tag == line_id) {
      set[w].stamp = ++clock_;  // already present; refresh
      return false;
    }
    if (set[w].stamp < oldest) {
      oldest = set[w].stamp;
      victim = w;
    }
  }
  bool evicting = set[victim].stamp != 0;
  if (evicting && evicted != nullptr) {
    *evicted = set[victim].tag;
  }
  set[victim].tag = line_id;
  set[victim].stamp = ++clock_;
  return evicting;
}

bool CacheLevel::Invalidate(uint64_t line_id) {
  Way* set = &entries_[static_cast<size_t>(SetIndex(line_id)) * ways_];
  for (uint32_t w = 0; w < ways_; ++w) {
    if (set[w].stamp != 0 && set[w].tag == line_id) {
      set[w].stamp = 0;
      return true;
    }
  }
  return false;
}

bool CacheLevel::Contains(uint64_t line_id) const {
  const Way* set = &entries_[static_cast<size_t>(SetIndex(line_id)) * ways_];
  for (uint32_t w = 0; w < ways_; ++w) {
    if (set[w].stamp != 0 && set[w].tag == line_id) {
      return true;
    }
  }
  return false;
}

uint64_t CacheLevel::resident_lines() const {
  uint64_t count = 0;
  for (const Way& w : entries_) {
    if (w.stamp != 0) {
      ++count;
    }
  }
  return count;
}

}  // namespace fm
