#include "src/graph/csr_graph.h"

#include <algorithm>

#include "src/util/logging.h"

namespace fm {

CsrGraph::CsrGraph(std::vector<Eid> offsets, std::vector<Vid> edges)
    : CsrGraph(std::move(offsets), std::move(edges), {}) {}

CsrGraph::CsrGraph(std::vector<Eid> offsets, std::vector<Vid> edges,
                   std::vector<float> weights)
    : offsets_(std::move(offsets)),
      edges_(std::move(edges)),
      weights_(std::move(weights)) {
  FM_CHECK_MSG(!offsets_.empty(), "CSR offsets must have at least one entry");
  FM_CHECK_MSG(offsets_.back() == edges_.size(),
               "CSR offsets/edges size mismatch: " << offsets_.back() << " vs "
                                                   << edges_.size());
  FM_CHECK_MSG(weights_.empty() || weights_.size() == edges_.size(),
               "CSR weights/edges size mismatch");
  offsets_view_ = offsets_;
  edges_view_ = edges_;
  weights_view_ = weights_;
#ifndef NDEBUG
  // Full O(V+E) well-formedness (monotone offsets, in-range targets) on every
  // construction in checking builds; untrusted input (the loaders in
  // edge_io.cc) is validated with a thrown error before it gets here.
  CheckValid();
#endif
}

CsrGraph::CsrGraph(std::shared_ptr<MappedFile> mapping,
                   std::span<const Eid> offsets, std::span<const Vid> edges,
                   std::span<const float> weights)
    : mapping_(std::move(mapping)),
      offsets_view_(offsets),
      edges_view_(edges),
      weights_view_(weights) {
  FM_CHECK(mapping_ != nullptr && mapping_->valid());
  FM_CHECK_MSG(!offsets_view_.empty(), "CSR offsets must have at least one entry");
  FM_CHECK_MSG(offsets_view_.back() == edges_view_.size(),
               "CSR offsets/edges size mismatch");
  FM_CHECK_MSG(weights_view_.empty() || weights_view_.size() == edges_view_.size(),
               "CSR weights/edges size mismatch");
}

CsrGraph& CsrGraph::operator=(const CsrGraph& other) {
  if (this == &other) {
    return *this;
  }
  offsets_ = other.offsets_;
  edges_ = other.edges_;
  weights_ = other.weights_;
  mapping_ = other.mapping_;
  if (mapping_ != nullptr) {
    offsets_view_ = other.offsets_view_;
    edges_view_ = other.edges_view_;
    weights_view_ = other.weights_view_;
  } else {
    offsets_view_ = offsets_;
    edges_view_ = edges_;
    weights_view_ = weights_;
  }
  return *this;
}

CsrGraph& CsrGraph::operator=(CsrGraph&& other) noexcept {
  if (this == &other) {
    return *this;
  }
  offsets_ = std::move(other.offsets_);
  edges_ = std::move(other.edges_);
  weights_ = std::move(other.weights_);
  mapping_ = std::move(other.mapping_);
  if (mapping_ != nullptr) {
    offsets_view_ = other.offsets_view_;
    edges_view_ = other.edges_view_;
    weights_view_ = other.weights_view_;
  } else {
    offsets_view_ = offsets_;
    edges_view_ = edges_;
    weights_view_ = weights_;
  }
  other.offsets_view_ = {};
  other.edges_view_ = {};
  other.weights_view_ = {};
  return *this;
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
  FM_CHECK(!offsets_view_.empty());
  FM_CHECK(offsets_view_.front() == 0);
  for (size_t i = 1; i < offsets_view_.size(); ++i) {
    FM_CHECK_MSG(offsets_view_[i] >= offsets_view_[i - 1],
                 "offsets not monotone at " << i);
  }
  FM_CHECK(offsets_view_.back() == edges_view_.size());
  Vid n = num_vertices();
  for (Vid target : edges_view_) {
    FM_CHECK_MSG(target < n, "edge target out of range: " << target);
  }
}

bool Identical(const CsrGraph& a, const CsrGraph& b) {
  return std::ranges::equal(a.offsets(), b.offsets()) &&
         std::ranges::equal(a.edges(), b.edges()) &&
         std::ranges::equal(a.weights(), b.weights());
}

}  // namespace fm
