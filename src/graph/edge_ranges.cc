#include "src/graph/edge_ranges.h"

#include <algorithm>
#include <ranges>

#include "src/util/logging.h"

namespace fm {
namespace {

// Ranges per pool thread: enough that dynamic dispatch evens out what the
// degree + 1 cost model misses (adjacency sorts are O(d log d), cache behaviour
// varies), few enough that per-range setup stays negligible.
constexpr uint64_t kRangesPerThread = 8;

}  // namespace

void ParallelForEdgeRanges(
    ThreadPool& pool, std::span<const Eid> offsets,
    const std::function<void(Vid begin, Vid end, uint32_t worker)>& body) {
  FM_CHECK_MSG(!offsets.empty(), "CSR offsets must have at least one entry");
  const Vid n = static_cast<Vid>(offsets.size() - 1);
  const uint64_t ranges =
      std::min<uint64_t>(n, uint64_t{pool.thread_count()} * kRangesPerThread);
  // The cost of the vertices before v is offsets[v] + v, non-decreasing in v, so
  // range r starts at the first vertex whose prefix cost reaches r/ranges of the
  // total: a lower_bound on offsets shifted by the vertex count.
  const uint64_t total = offsets[n] + n;
  const auto vids = std::views::iota(Vid{0}, n);
  auto cut = [&](uint64_t r) {
    const uint64_t target = total * r / ranges;
    auto it = std::ranges::partition_point(
        vids, [&](Vid v) { return offsets[v] + v < target; });
    return static_cast<Vid>(it - vids.begin());
  };
  pool.ParallelFor(ranges, [&](uint64_t r, uint32_t worker) {
    const Vid begin = cut(r);
    const Vid end = cut(r + 1);
    if (begin < end) {
      body(begin, end, worker);
    }
  });
}

}  // namespace fm
