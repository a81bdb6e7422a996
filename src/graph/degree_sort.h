// Degree-descending vertex reordering (§4.1 "Vertex ordering").
//
// FlashMob arranges vertices in descending degree order so that contiguous vertex
// partitions group similar-degree (and similarly-popular) vertices. Sorting uses an
// O(|V| + maxdeg) counting sort, matching the paper's pre-processing (§5.2: "sorting
// vertices by their degree on YH ... takes 7.7 seconds using the O(|V|)-complexity
// counting sort").
#ifndef SRC_GRAPH_DEGREE_SORT_H_
#define SRC_GRAPH_DEGREE_SORT_H_

#include <vector>

#include "src/graph/csr_graph.h"
#include "src/util/thread_pool.h"

namespace fm {

struct DegreeSortedGraph {
  CsrGraph graph;                // relabelled: VID 0 has the highest degree
  std::vector<Vid> new_to_old;   // sorted VID -> original VID
  std::vector<Vid> old_to_new;   // original VID -> sorted VID
};

// Stable counting sort by descending out-degree; adjacency targets are relabelled and
// re-sorted ascending. Runs on `pool` (per-chunk degree histograms, then an
// edge-balanced rebuild); the result is bit-identical for every pool size. Must
// not be called from inside a job of `pool`: ThreadPool::ParallelFor is not
// reentrant.
DegreeSortedGraph DegreeSort(const CsrGraph& graph,
                             ThreadPool& pool = ThreadPool::Global());

// True when degrees are non-increasing in VID order (the engine's input contract).
bool IsDegreeSorted(const CsrGraph& graph);

}  // namespace fm

#endif  // SRC_GRAPH_DEGREE_SORT_H_
