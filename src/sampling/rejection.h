// Second-order (node2vec) edge sampling via rejection (KnightKing-style, §6).
//
// node2vec's transition weight out of `cur` with predecessor `prev` toward candidate
// x is 1/p when x == prev, 1 when x is a neighbor of prev, and 1/q otherwise (Grover
// & Leskovec 2016). Computing the full weight vector per step is O(degree); rejection
// sampling instead proposes a uniform neighbor and accepts with weight/bound, keeping
// the amortized per-step cost O(1) plus one connectivity check — the access pattern
// §5.2 describes ("a connectivity check between a walker's sampled destination and
// its previous stop").
#ifndef SRC_SAMPLING_REJECTION_H_
#define SRC_SAMPLING_REJECTION_H_

#include <algorithm>

#include "src/graph/csr_graph.h"
#include "src/util/sync.h"
#include "src/util/types.h"

namespace fm {

// Precondition: p and q are finite and > 0. Otherwise the rejection bound
// below is infinite or a weight is negative, and the accept test never passes
// (FlashMobEngine::Run checks this before walking).
struct Node2VecParams {
  double p = 1.0;  // return parameter
  double q = 1.0;  // in-out parameter
};

// Unnormalized node2vec weight of stepping cur -> candidate given predecessor prev.
FM_HOT_PATH double Node2VecWeight(const CsrGraph& graph, Vid prev,
                                  Vid candidate, const Node2VecParams& params);

// Draws the next vertex. `cur` must have degree >= 1. The loop terminates with
// probability 1 (acceptance ratio >= min-weight / max-weight > 0).
template <typename Rng>
FM_HOT_PATH Vid SampleNode2VecRejection(const CsrGraph& graph, Vid cur,
                                        Vid prev, const Node2VecParams& params,
                                        Rng& rng) {
  auto nbrs = graph.neighbors(cur);
  // div: reciprocals of the runtime p/q parameters, computed once per draw and
  // hoisted out of the rejection loop.
  double bound = std::max({1.0, 1.0 / params.p, 1.0 / params.q});
  while (true) {
    Vid candidate = nbrs[rng.NextBounded(nbrs.size())];
    double w = Node2VecWeight(graph, prev, candidate, params);
    if (rng.NextDouble() * bound < w) {
      return candidate;
    }
  }
}

}  // namespace fm

#endif  // SRC_SAMPLING_REJECTION_H_
