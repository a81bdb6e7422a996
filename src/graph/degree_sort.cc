#include "src/graph/degree_sort.h"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <utility>

#include "src/graph/edge_ranges.h"
#include "src/util/logging.h"

namespace fm {

void RadixSortKeys(std::span<Vid> keys, std::span<Vid> scratch,
                   uint32_t digits) {
  FM_DCHECK(digits >= 1 && digits <= sizeof(Vid));
  FM_DCHECK(scratch.size() >= keys.size());
  if (keys.size() < 2) {
    return;
  }
  // One pass over the keys counts every digit; each digit's pass then
  // scatters by its exclusive prefix sum, which keeps the sort stable.
  std::array<std::array<uint32_t, 256>, sizeof(Vid)> counts{};
  for (Vid key : keys) {
    for (uint32_t d = 0; d < digits; ++d) {
      ++counts[d][(key >> (8 * d)) & 0xFF];
    }
  }
  Vid* from = keys.data();
  Vid* to = scratch.data();
  for (uint32_t d = 0; d < digits; ++d) {
    const uint32_t shift = 8 * d;
    std::array<uint32_t, 256>& next = counts[d];
    // All keys share this digit: the pass would copy them in order.
    if (next[(from[0] >> shift) & 0xFF] == keys.size()) {
      continue;
    }
    uint32_t sum = 0;
    for (uint32_t& c : next) {
      sum += std::exchange(c, sum);
    }
    for (size_t i = 0; i < keys.size(); ++i) {
      to[next[(from[i] >> shift) & 0xFF]++] = from[i];
    }
    std::swap(from, to);
  }
  if (from != keys.data()) {
    std::copy(from, from + keys.size(), keys.data());
  }
}

DegreeSortedGraph DegreeSort(const CsrGraph& graph, ThreadPool& pool) {
  Vid n = graph.num_vertices();
  DegreeSortedGraph result;
  result.new_to_old.resize(n);
  result.old_to_new.resize(n);
  if (n == 0) {
    result.graph = CsrGraph({0}, {});
    return result;
  }

  // Stable parallel counting sort on degree, descending. The old VIDs are cut
  // into one contiguous chunk per pool thread and each chunk counts its own
  // degree histogram, `slots[c * buckets + d]`. The prefix pass then lays the
  // slots out degree-descending and, within one degree, chunk-ascending, turning
  // each count into the chunk's first output slot for that degree. Each chunk
  // scatters its vertices in ascending VID order, so equal-degree vertices keep
  // their original order and the permutation does not depend on the chunking.
  const size_t buckets = static_cast<size_t>(graph.MaxDegree()) + 1;
  const uint64_t chunks = std::min<uint64_t>(n, pool.thread_count());
  auto chunk_begin = [&](uint64_t c) { return static_cast<Vid>(n * c / chunks); };
  std::vector<Vid> slots(chunks * buckets, 0);
  pool.ParallelFor(chunks, [&](uint64_t c, uint32_t) {
    Vid* hist = slots.data() + c * buckets;
    for (Vid v = chunk_begin(c); v < chunk_begin(c + 1); ++v) {
      ++hist[graph.degree(v)];
    }
  });
  Vid slot = 0;
  for (size_t d = buckets; d-- > 0;) {
    for (uint64_t c = 0; c < chunks; ++c) {
      Vid count = slots[c * buckets + d];
      slots[c * buckets + d] = slot;
      slot += count;
    }
  }
  // The scatter writes each new vertex's degree into the output offsets, so
  // they need only a prefix sum in place: every slot is written, and nothing
  // is zero-filled.
  CsrArrays out(n, graph.num_edges(), graph.weighted());
  Eid* offsets = out.offsets.data();
  offsets[0] = 0;
  pool.ParallelFor(chunks, [&](uint64_t c, uint32_t) {
    Vid* next = slots.data() + c * buckets;
    for (Vid v = chunk_begin(c); v < chunk_begin(c + 1); ++v) {
      Degree d = graph.degree(v);
      Vid pos = next[d]++;
      result.new_to_old[pos] = v;
      result.old_to_new[v] = pos;
      offsets[pos + 1] = d;
    }
  });
  slots = {};
  std::partial_sum(offsets, offsets + n + 1, offsets);

  // Rebuild the CSR under the new labels, carrying edge weights through the
  // relabelling and the per-list re-sort, over edge-balanced blocks of new
  // vertices (the hubs come first). The workers write every edge and weight
  // of their blocks into the uninitialised output, so they touch its pages
  // first. An unweighted list longer than kRadixSortMinLength is radix sorted
  // over the bytes a new id can use, in a per-worker scratch as long as the
  // longest such list the worker meets; a sorted multiset has one order, so
  // this equals std::sort. Weighted lists keep std::sort on (target, weight)
  // pairs: introsort's order of equal targets is not stable, and the alias
  // tables and walks depend on it.
  const uint32_t radix_digits =
      std::max(1u, static_cast<uint32_t>(std::bit_width(n - 1) + 7) / 8);
  Vid* edges = out.edges.data();
  float* weights = out.weights.data();
  std::vector<std::vector<std::pair<Vid, float>>> scratch(pool.thread_count());
  std::vector<std::vector<Vid>> radix_scratch(pool.thread_count());
  const std::span<const Eid> new_offsets(offsets, size_t{n} + 1);
  ParallelForEdgeRanges(pool, new_offsets, [&](Vid begin, Vid end, uint32_t worker) {
    std::vector<std::pair<Vid, float>>& pairs = scratch[worker];
    for (Vid nv = begin; nv < end; ++nv) {
      Vid old_v = result.new_to_old[nv];
      Eid write = offsets[nv];
      auto nbrs = graph.neighbors(old_v);
      if (!graph.weighted()) {
        for (Vid old_target : nbrs) {
          edges[write++] = result.old_to_new[old_target];
        }
        std::span<Vid> list(edges + offsets[nv], nbrs.size());
        if (list.size() <= kRadixSortMinLength) {
          std::sort(list.begin(), list.end());
          continue;
        }
        std::vector<Vid>& keys_scratch = radix_scratch[worker];
        if (keys_scratch.size() < list.size()) {
          keys_scratch.resize(list.size());
        }
        RadixSortKeys(list, keys_scratch, radix_digits);
        continue;
      }
      auto wts = graph.neighbor_weights(old_v);
      pairs.resize(nbrs.size());
      for (size_t i = 0; i < nbrs.size(); ++i) {
        pairs[i] = {result.old_to_new[nbrs[i]], wts[i]};
      }
      std::sort(pairs.begin(), pairs.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (const auto& [target, weight] : pairs) {
        edges[write] = target;
        weights[write] = weight;
        ++write;
      }
    }
  });
  result.graph = CsrGraph(std::move(out));
  return result;
}

bool IsDegreeSorted(const CsrGraph& graph) {
  for (Vid v = 1; v < graph.num_vertices(); ++v) {
    if (graph.degree(v) > graph.degree(v - 1)) {
      return false;
    }
  }
  return true;
}

}  // namespace fm
