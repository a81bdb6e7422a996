#include "src/graph/degree_sort.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/graph/edge_ranges.h"
#include "src/util/logging.h"

namespace fm {

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
  // The scatter also records each new vertex's degree, so the relabelled
  // offsets need only a prefix sum, not a second gather over the old graph.
  std::vector<Eid> offsets(static_cast<size_t>(n) + 1, 0);
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
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());

  // Rebuild the CSR under the new labels, carrying edge weights through the
  // relabelling and the per-list re-sort, over edge-balanced blocks of new
  // vertices (the hubs come first).
  std::vector<Vid> edges(offsets.back());
  std::vector<float> weights(graph.weighted() ? offsets.back() : 0);
  std::vector<std::vector<std::pair<Vid, float>>> scratch(pool.thread_count());
  ParallelForEdgeRanges(pool, offsets, [&](Vid begin, Vid end, uint32_t worker) {
    std::vector<std::pair<Vid, float>>& pairs = scratch[worker];
    for (Vid nv = begin; nv < end; ++nv) {
      Vid old_v = result.new_to_old[nv];
      Eid write = offsets[nv];
      auto nbrs = graph.neighbors(old_v);
      if (!graph.weighted()) {
        for (Vid old_target : nbrs) {
          edges[write++] = result.old_to_new[old_target];
        }
        std::sort(edges.begin() + offsets[nv], edges.begin() + write);
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
  result.graph = CsrGraph(std::move(offsets), std::move(edges), std::move(weights));
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
