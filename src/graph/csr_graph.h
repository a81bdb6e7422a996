// Compressed Sparse Row graph representation.
//
// The canonical immutable graph object of the library. FlashMob requires (§4.1) the
// vertices to be ordered by descending degree; `CsrGraph` itself is ordering-agnostic
// and `DegreeSort()` (degree_sort.h) produces the sorted/relabelled instance the
// engine consumes. Adjacency lists are kept sorted ascending so that the node2vec
// connectivity check (§5.2) can use binary search.
//
// A graph is three spans (offsets, edges, weights) plus a shared owner of the
// immutable storage they view. The owner is one of:
//  - the vectors a builder or generator moved in;
//  - `CsrArrays`: uninitialised, cache-line aligned buffers that the binary
//    loader and DegreeSort fill on their pool, so pool workers touch the pages
//    first and nothing is zero-filled;
//  - a read-only file mapping (LoadCsrBinaryMapped in edge_io.h): the
//    out-of-core mode where the OS page cache streams partitions from disk,
//    the paper's future-work direction.
// Nothing writes through the spans, so copies share the storage, and a copy
// or a move stays valid after its source is destroyed. A moved-from graph
// still holds the spans but not the storage: assign to it or destroy it.
#ifndef SRC_GRAPH_CSR_GRAPH_H_
#define SRC_GRAPH_CSR_GRAPH_H_

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "src/util/aligned_buffer.h"
#include "src/util/logging.h"
#include "src/util/mmap_file.h"
#include "src/util/types.h"

namespace fm {

// Uninitialised CSR arrays of a known size, written once by their producer
// (the binary loader, DegreeSort) and then handed to a CsrGraph.
struct CsrArrays {
  CsrArrays(Vid num_vertices, Eid num_edges, bool weighted)
      : offsets(size_t{num_vertices} + 1),
        edges(num_edges),
        weights(weighted ? num_edges : 0) {}

  AlignedBuffer<Eid> offsets;
  AlignedBuffer<Vid> edges;
  AlignedBuffer<float> weights;  // empty for an unweighted graph
};

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

  // Takes ownership of arrays a producer has filled completely.
  explicit CsrGraph(CsrArrays arrays);

  // Views arrays inside `mapping`, which copies of the graph share. Used by
  // LoadCsrBinaryMapped; `weights` may be empty (unweighted file).
  CsrGraph(const std::shared_ptr<const MappedFile>& mapping,
           std::span<const Eid> offsets, std::span<const Vid> edges,
           std::span<const float> weights = {});

  Vid num_vertices() const {
    return static_cast<Vid>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }
  Eid num_edges() const { return static_cast<Eid>(edges_.size()); }

  Degree degree(Vid v) const {
    FM_DCHECK_LT(v, num_vertices());
    return static_cast<Degree>(offsets_[v + 1] - offsets_[v]);
  }

  Eid edge_begin(Vid v) const {
    FM_DCHECK_LT(v, num_vertices());
    return offsets_[v];
  }
  Eid edge_end(Vid v) const {
    FM_DCHECK_LT(v, num_vertices());
    return offsets_[v + 1];
  }

  std::span<const Vid> neighbors(Vid v) const {
    FM_DCHECK_LT(v, num_vertices());
    return edges_.subspan(offsets_[v], offsets_[v + 1] - offsets_[v]);
  }

  std::span<const Eid> offsets() const { return offsets_; }
  std::span<const Vid> edges() const { return edges_; }

  // Edge weights aligned with edges(); empty for unweighted graphs.
  bool weighted() const { return !weights_.empty(); }
  std::span<const float> weights() const { return weights_; }
  std::span<const float> neighbor_weights(Vid v) const {
    FM_DCHECK_LT(v, num_vertices());
    return weights_.subspan(offsets_[v], offsets_[v + 1] - offsets_[v]);
  }

  // True when the graph views its arrays in a file mapping.
  bool memory_mapped() const { return memory_mapped_; }

  // True when v's (sorted) adjacency list contains u. O(log degree(v)).
  bool HasEdge(Vid v, Vid u) const;

  // The vertex whose adjacency list holds edge position `pos` < num_edges():
  // a uniform position gives a degree-proportional vertex ("uniformly sampling
  // among all edges", §3). O(log |V|).
  Vid VertexOfEdge(Eid pos) const {
    auto it = std::upper_bound(offsets_.begin(), offsets_.end(), pos);
    return static_cast<Vid>((it - offsets_.begin()) - 1);
  }

  // True when every adjacency list is sorted ascending (required by HasEdge).
  bool AdjacencySorted() const;

  // Maximum out-degree over all vertices (0 for an empty graph).
  Degree MaxDegree() const;

  // Bytes of the CSR arrays (the "CSR Size" column of Table 4).
  uint64_t CsrBytes() const {
    return offsets_.size() * sizeof(Eid) + edges_.size() * sizeof(Vid);
  }

  // Internal consistency: monotone offsets, edge targets in range. Aborts on
  // violation (programmer error); file input is validated by the loaders.
  void CheckValid() const;

 private:
  // Views the arrays of owned storage: CsrArrays, or a builder's vectors.
  template <typename Storage>
  explicit CsrGraph(const std::shared_ptr<const Storage>& storage)
      : CsrGraph(storage, storage->offsets, storage->edges, storage->weights,
                 /*memory_mapped=*/false) {}

  // Every constructor ends here: checks the sizes and adopts the spans.
  CsrGraph(std::shared_ptr<const void> storage, std::span<const Eid> offsets,
           std::span<const Vid> edges, std::span<const float> weights,
           bool memory_mapped);

  // Keeps the viewed arrays alive; shared by copies of the graph.
  std::shared_ptr<const void> storage_;
  std::span<const Eid> offsets_;
  std::span<const Vid> edges_;
  std::span<const float> weights_;
  bool memory_mapped_ = false;
};

// Structural equality (same offsets and edge arrays).
bool Identical(const CsrGraph& a, const CsrGraph& b);

}  // namespace fm

#endif  // SRC_GRAPH_CSR_GRAPH_H_
