// Shared helpers for the FlashMob test suite.
#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <span>
#include <utility>
#include <vector>

#include "src/core/walk_observer.h"
#include "src/graph/csr_graph.h"
#include "src/graph/degree_sort.h"
#include "src/graph/graph_builder.h"
#include "src/util/sync.h"

namespace fm {

// Small hand-checkable graph: a 4-cycle with chords (directed, every vertex has
// out-degree >= 1).
//   0 -> 1, 2, 3;  1 -> 0, 2;  2 -> 3;  3 -> 0
inline CsrGraph SmallGraph() {
  GraphBuilder b(4);
  for (auto [u, v] : std::vector<std::pair<Vid, Vid>>{
           {0, 1}, {0, 2}, {0, 3}, {1, 0}, {1, 2}, {2, 3}, {3, 0}}) {
    b.AddEdge(u, v);
  }
  return b.Build();
}

// The same graph already degree-sorted (it happens to be: degrees 3,2,1,1).
inline CsrGraph SmallSortedGraph() { return DegreeSort(SmallGraph()).graph; }

// Undirected star: center 0 connected to n-1 leaves (degree skew in miniature).
inline CsrGraph StarGraph(Vid n) {
  GraphBuilder b(n);
  for (Vid v = 1; v < n; ++v) {
    b.AddEdge(0, v);
  }
  return b.Build({.undirected = true});
}

// Directed ring 0 -> 1 -> ... -> n-1 -> 0 (deterministic walks: degree 1).
inline CsrGraph RingGraph(Vid n) {
  GraphBuilder b(n);
  for (Vid v = 0; v < n; ++v) {
    b.AddEdge(v, (v + 1) % n);
  }
  return b.Build();
}

// Complete directed graph without self loops.
inline CsrGraph CompleteGraph(Vid n) {
  GraphBuilder b(n);
  for (Vid u = 0; u < n; ++u) {
    for (Vid v = 0; v < n; ++v) {
      if (u != v) {
        b.AddEdge(u, v);
      }
    }
  }
  return b.Build();
}

// Reference visit counter: every start position (OnPlacementChunk) and every
// post-step position (OnSampleChunk), added serially under one mutex. The
// engine counts the same (step, vertex) multiset in its own way, so its
// WalkResult::visit_counts must equal counts() exactly.
class StreamedVisitOracle : public WalkObserver {
 public:
  explicit StreamedVisitOracle(Vid num_vertices) : counts_(num_vertices, 0) {}

  void OnPlacementChunk(Wid /*begin*/,
                        std::span<const Vid> positions) override {
    Add(positions);
  }
  void OnSampleChunk(std::span<const Vid> positions) override {
    Add(positions);
  }

  // Read after the run, when no chunk callback is in flight.
  std::vector<uint64_t> counts() {
    MutexLock lock(mu_);
    return counts_;
  }

 private:
  void Add(std::span<const Vid> positions) {
    MutexLock lock(mu_);
    for (Vid v : positions) {
      if (v != kInvalidVid) {
        ++counts_[v];
      }
    }
  }

  Mutex mu_;  // guards counts_
  std::vector<uint64_t> counts_ FM_GUARDED_BY(mu_);
};

}  // namespace fm

#endif  // TESTS_TEST_UTIL_H_
