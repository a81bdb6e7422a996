// Compressed Sparse Row graph representation.
//
// The canonical immutable graph object of the library. FlashMob requires (§4.1) the
// vertices to be ordered by descending degree; `CsrGraph` itself is ordering-agnostic
// and `DegreeSort()` (degree_sort.h) produces the sorted/relabelled instance the
// engine consumes. Adjacency lists are kept sorted ascending so that the node2vec
// connectivity check (§5.2) can use binary search.
//
// Storage is either owned (built in memory) or borrowed from a read-only file
// mapping (LoadCsrBinaryMapped in edge_io.h) — the out-of-core mode where the OS
// page cache streams partitions from disk, the paper's future-work direction.
#ifndef SRC_GRAPH_CSR_GRAPH_H_
#define SRC_GRAPH_CSR_GRAPH_H_

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "src/util/logging.h"
#include "src/util/mmap_file.h"
#include "src/util/types.h"

namespace fm {

class CsrGraph {
 public:
  CsrGraph() = default;

  // Takes ownership of a prebuilt CSR. offsets.size() must be num_vertices + 1 and
  // offsets.back() == edges.size(). Used by GraphBuilder and the generators.
  CsrGraph(std::vector<Eid> offsets, std::vector<Vid> edges);

  // Weighted variant: weights.size() must equal edges.size() (or be empty for an
  // unweighted graph). weights[i] is the transition weight of edges[i] (§2.1's
  // general "transition probability specification").
  CsrGraph(std::vector<Eid> offsets, std::vector<Vid> edges,
           std::vector<float> weights);

  // Borrows the arrays from `mapping` (shared so copies of the graph stay valid).
  // Used by LoadCsrBinaryMapped; the spans must point into the mapping. `weights`
  // may be empty (unweighted file).
  CsrGraph(std::shared_ptr<MappedFile> mapping, std::span<const Eid> offsets,
           std::span<const Vid> edges, std::span<const float> weights = {});

  Vid num_vertices() const {
    return static_cast<Vid>(offsets_view_.empty() ? 0 : offsets_view_.size() - 1);
  }
  Eid num_edges() const { return static_cast<Eid>(edges_view_.size()); }

  Degree degree(Vid v) const {
    FM_DCHECK_LT(v, num_vertices());
    return static_cast<Degree>(offsets_view_[v + 1] - offsets_view_[v]);
  }

  Eid edge_begin(Vid v) const {
    FM_DCHECK_LT(v, num_vertices());
    return offsets_view_[v];
  }
  Eid edge_end(Vid v) const {
    FM_DCHECK_LT(v, num_vertices());
    return offsets_view_[v + 1];
  }

  std::span<const Vid> neighbors(Vid v) const {
    FM_DCHECK_LT(v, num_vertices());
    return edges_view_.subspan(offsets_view_[v],
                               offsets_view_[v + 1] - offsets_view_[v]);
  }

  std::span<const Eid> offsets() const { return offsets_view_; }
  std::span<const Vid> edges() const { return edges_view_; }

  // Edge weights aligned with edges(); empty for unweighted graphs.
  bool weighted() const { return !weights_view_.empty(); }
  std::span<const float> weights() const { return weights_view_; }
  std::span<const float> neighbor_weights(Vid v) const {
    FM_DCHECK_LT(v, num_vertices());
    return weights_view_.subspan(offsets_view_[v],
                                 offsets_view_[v + 1] - offsets_view_[v]);
  }

  // True when the graph borrows its arrays from a file mapping.
  bool memory_mapped() const { return mapping_ != nullptr; }

  // True when v's (sorted) adjacency list contains u. O(log degree(v)).
  bool HasEdge(Vid v, Vid u) const;

  // The vertex whose adjacency list holds edge position `pos` < num_edges():
  // a uniform position gives a degree-proportional vertex ("uniformly sampling
  // among all edges", §3). O(log |V|).
  Vid VertexOfEdge(Eid pos) const {
    auto it = std::upper_bound(offsets_view_.begin(), offsets_view_.end(), pos);
    return static_cast<Vid>((it - offsets_view_.begin()) - 1);
  }

  // True when every adjacency list is sorted ascending (required by HasEdge).
  bool AdjacencySorted() const;

  // Maximum out-degree over all vertices (0 for an empty graph).
  Degree MaxDegree() const;

  // Bytes of the CSR arrays (the "CSR Size" column of Table 4).
  uint64_t CsrBytes() const {
    return offsets_view_.size() * sizeof(Eid) + edges_view_.size() * sizeof(Vid);
  }

  // Internal consistency: monotone offsets, edge targets in range. Aborts on
  // violation (programmer error); file input is validated by the loaders.
  void CheckValid() const;

 private:
  // Owned storage (empty when memory-mapped).
  std::vector<Eid> offsets_;
  std::vector<Vid> edges_;
  std::vector<float> weights_;
  // Keeps a borrowed mapping alive across copies of the graph.
  std::shared_ptr<MappedFile> mapping_;
  // Views over whichever storage backs the graph.
  std::span<const Eid> offsets_view_;
  std::span<const Vid> edges_view_;
  std::span<const float> weights_view_;

 public:
  // Copy/move must re-point the views at the destination's own vectors.
  CsrGraph(const CsrGraph& other) { *this = other; }
  CsrGraph& operator=(const CsrGraph& other);
  CsrGraph(CsrGraph&& other) noexcept { *this = std::move(other); }
  CsrGraph& operator=(CsrGraph&& other) noexcept;
};

// Structural equality (same offsets and edge arrays).
bool Identical(const CsrGraph& a, const CsrGraph& b);

}  // namespace fm

#endif  // SRC_GRAPH_CSR_GRAPH_H_
