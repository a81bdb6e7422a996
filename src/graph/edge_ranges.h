// Edge-balanced parallel loop over the vertices of a CSR.
//
// The O(|E|) preprocessing passes (DegreeSort's rebuild, the per-vertex alias
// tables) do work proportional to each vertex's degree. On a degree-sorted graph
// the hubs come first, so equal *vertex* counts per worker hand the first worker
// most of the edges. Cutting by edges keeps the workers equally busy.
#ifndef SRC_GRAPH_EDGE_RANGES_H_
#define SRC_GRAPH_EDGE_RANGES_H_

#include <cstdint>
#include <functional>
#include <span>

#include "src/util/thread_pool.h"
#include "src/util/types.h"

namespace fm {

// Cuts [0, n) (n = offsets.size() - 1) into contiguous vertex ranges of about
// equal cost, where a vertex costs its degree plus one, and runs
// body(begin, end, worker_index) on `pool` for every non-empty range. There are a
// few ranges per pool thread, so dynamic dispatch evens out cost the model
// misses; a single vertex is never split, so one hub may make its range the
// longest. Ranges cover [0, n) exactly once. Blocks like ThreadPool::ParallelFor
// and, like it, must not be called from inside a pool job.
void ParallelForEdgeRanges(
    ThreadPool& pool, std::span<const Eid> offsets,
    const std::function<void(Vid begin, Vid end, uint32_t worker)>& body);

}  // namespace fm

#endif  // SRC_GRAPH_EDGE_RANGES_H_
