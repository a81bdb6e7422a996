// Degree-descending vertex reordering (§4.1 "Vertex ordering").
//
// FlashMob arranges vertices in descending degree order so that contiguous vertex
// partitions group similar-degree (and similarly-popular) vertices. Sorting uses an
// O(|V| + maxdeg) counting sort, matching the paper's pre-processing (§5.2: "sorting
// vertices by their degree on YH ... takes 7.7 seconds using the O(|V|)-complexity
// counting sort"). The CSR is then rebuilt under the new ids: each adjacency list
// is relabelled and re-sorted, a long unweighted one by radix sort, the rest by
// std::sort.
#ifndef SRC_GRAPH_DEGREE_SORT_H_
#define SRC_GRAPH_DEGREE_SORT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/graph/csr_graph.h"
#include "src/util/thread_pool.h"

namespace fm {

struct DegreeSortedGraph {
  CsrGraph graph;                // relabelled: VID 0 has the highest degree
  std::vector<Vid> new_to_old;   // sorted VID -> original VID
  std::vector<Vid> old_to_new;   // original VID -> sorted VID
};

// Unweighted adjacency lists longer than this are radix sorted after the
// relabelling; shorter ones keep std::sort, whose cost there is lower than
// clearing and summing the radix counts. Measured on the whole DegreeSort
// (deepwalk-yh and node2vec-fs graphs, 4 threads on a 4-core VM), cutoffs of
// 24 and 32 were fastest, and 64 and 128 slower (DESIGN.md, key design
// decision 7b).
inline constexpr size_t kRadixSortMinLength = 32;

// Stable counting sort by descending out-degree; adjacency targets are relabelled and
// re-sorted ascending. Runs on `pool` (per-chunk degree histograms, then an
// edge-balanced rebuild into uninitialised arrays the workers fill); the result
// is bit-identical for every pool size. Besides its result it allocates only
// the degree histograms, freed before the rebuild, and per-worker sort scratch
// no longer than the longest list. Must not be called from inside a job of
// `pool`: ThreadPool::ParallelFor is not reentrant.
DegreeSortedGraph DegreeSort(const CsrGraph& graph,
                             ThreadPool& pool = ThreadPool::Global());

// Sorts `keys` ascending by a stable LSD radix sort over their low `digits`
// bytes (1 to 4; every key must be below 2^(8 * digits)), using `scratch`,
// which must hold at least keys.size() entries. DegreeSort's sort for long
// unweighted lists; exposed for its tests.
void RadixSortKeys(std::span<Vid> keys, std::span<Vid> scratch,
                   uint32_t digits);

// True when degrees are non-increasing in VID order (the engine's input contract).
bool IsDegreeSorted(const CsrGraph& graph);

}  // namespace fm

#endif  // SRC_GRAPH_DEGREE_SORT_H_
