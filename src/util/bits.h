// Small bit-manipulation and memory-hint helpers.
#ifndef SRC_UTIL_BITS_H_
#define SRC_UTIL_BITS_H_

#include <bit>
#include <cstdint>

#include "src/util/sync.h"

namespace fm {

inline bool IsPowerOfTwo(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

// Smallest power of two >= x (x must be >= 1).
inline uint64_t NextPowerOfTwo(uint64_t x) { return std::bit_ceil(x); }

// Largest power of two <= x (x must be >= 1).
inline uint64_t PrevPowerOfTwo(uint64_t x) { return std::bit_floor(x); }

// floor(log2(x)) for x >= 1.
inline uint32_t Log2Floor(uint64_t x) {
  return 63u - static_cast<uint32_t>(std::countl_zero(x));
}

// ceil(log2(x)) for x >= 1.
inline uint32_t Log2Ceil(uint64_t x) {
  return x <= 1 ? 0 : Log2Floor(x - 1) + 1;
}

// ceil(a / b) for b > 0.
inline uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

// Rounds x up to the next multiple of `align` (align must be a power of two).
inline uint64_t AlignUp(uint64_t x, uint64_t align) {
  return (x + align - 1) & ~(align - 1);
}

// Read prefetch with full temporal locality: the line is expected to be used
// soon. A hint only: issuing (or skipping) a prefetch never changes an
// architectural result, so callers that prefetch stay bit-identical to those
// that do not.
FM_HOT_PATH inline void PrefetchRead(const void* p) {
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
}

}  // namespace fm

#endif  // SRC_UTIL_BITS_H_
