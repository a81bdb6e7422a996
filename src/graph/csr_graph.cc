#include "src/graph/csr_graph.h"

#include <algorithm>
#include <utility>

#include "src/util/logging.h"

namespace fm {

namespace {

// The storage of a graph built in memory: the vectors its builder moved in.
struct CsrVectors {
  std::vector<Eid> offsets;
  std::vector<Vid> edges;
  std::vector<float> weights;
};

}  // namespace

CsrGraph::CsrGraph(std::vector<Eid> offsets, std::vector<Vid> edges)
    : CsrGraph(std::move(offsets), std::move(edges), {}) {}

CsrGraph::CsrGraph(std::vector<Eid> offsets, std::vector<Vid> edges,
                   std::vector<float> weights)
    : CsrGraph(std::make_shared<const CsrVectors>(CsrVectors{
          std::move(offsets), std::move(edges), std::move(weights)})) {}

CsrGraph::CsrGraph(CsrArrays arrays)
    : CsrGraph(std::make_shared<const CsrArrays>(std::move(arrays))) {}

CsrGraph::CsrGraph(const std::shared_ptr<const MappedFile>& mapping,
                   std::span<const Eid> offsets, std::span<const Vid> edges,
                   std::span<const float> weights)
    : CsrGraph(mapping, offsets, edges, weights, /*memory_mapped=*/true) {
  FM_CHECK(mapping->valid());
}

CsrGraph::CsrGraph(std::shared_ptr<const void> storage,
                   std::span<const Eid> offsets, std::span<const Vid> edges,
                   std::span<const float> weights, bool memory_mapped)
    : storage_(std::move(storage)),
      offsets_(offsets),
      edges_(edges),
      weights_(weights),
      memory_mapped_(memory_mapped) {
  FM_CHECK(storage_ != nullptr);
  FM_CHECK_MSG(!offsets_.empty(), "CSR offsets must have at least one entry");
  FM_CHECK_MSG(offsets_.back() == edges_.size(),
               "CSR offsets/edges size mismatch: " << offsets_.back() << " vs "
                                                   << edges_.size());
  FM_CHECK_MSG(weights_.empty() || weights_.size() == edges_.size(),
               "CSR weights/edges size mismatch");
#ifndef NDEBUG
  // Full O(V+E) well-formedness (monotone offsets, in-range targets) of every
  // graph built in memory, in checking builds; untrusted input (the loaders in
  // edge_io.cc) is validated with a thrown error before it gets here, and a
  // mapped graph is not paged in just to check it again.
  if (!memory_mapped_) {
    CheckValid();
  }
#endif
}

bool CsrGraph::HasEdge(Vid v, Vid u) const {
  auto nbrs = neighbors(v);
  return std::binary_search(nbrs.begin(), nbrs.end(), u);
}

bool CsrGraph::AdjacencySorted() const {
  for (Vid v = 0; v < num_vertices(); ++v) {
    auto nbrs = neighbors(v);
    if (!std::is_sorted(nbrs.begin(), nbrs.end())) {
      return false;
    }
  }
  return true;
}

Degree CsrGraph::MaxDegree() const {
  Degree max_deg = 0;
  for (Vid v = 0; v < num_vertices(); ++v) {
    max_deg = std::max(max_deg, degree(v));
  }
  return max_deg;
}

void CsrGraph::CheckValid() const {
  FM_CHECK(!offsets_.empty());
  FM_CHECK(offsets_.front() == 0);
  for (size_t i = 1; i < offsets_.size(); ++i) {
    FM_CHECK_MSG(offsets_[i] >= offsets_[i - 1],
                 "offsets not monotone at " << i);
  }
  FM_CHECK(offsets_.back() == edges_.size());
  Vid n = num_vertices();
  for (Vid target : edges_) {
    FM_CHECK_MSG(target < n, "edge target out of range: " << target);
  }
}

bool Identical(const CsrGraph& a, const CsrGraph& b) {
  return std::ranges::equal(a.offsets(), b.offsets()) &&
         std::ranges::equal(a.edges(), b.edges()) &&
         std::ranges::equal(a.weights(), b.weights());
}

}  // namespace fm
