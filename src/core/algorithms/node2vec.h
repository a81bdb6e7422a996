// node2vec workload helpers and the exact transition distribution (Grover &
// Leskovec, KDD 2016).
//
// Every engine samples node2vec transitions by rejection (sampling/rejection.h,
// Node2VecStep in sample_stage.h); this module provides the exact normalized
// distribution for statistical validation, plus the conventional WalkSpec
// (10 rounds x 40 steps, §2.1/§5.1).
#ifndef SRC_CORE_ALGORITHMS_NODE2VEC_H_
#define SRC_CORE_ALGORITHMS_NODE2VEC_H_

#include <vector>

#include "src/core/walk_spec.h"
#include "src/graph/csr_graph.h"

namespace fm {

inline WalkSpec Node2VecSpec(Vid num_vertices, double p, double q,
                             uint32_t steps = 40, uint32_t rounds = 10,
                             uint64_t seed = 1) {
  WalkSpec spec;
  spec.algorithm = WalkAlgorithm::kNode2Vec;
  spec.steps = steps;
  spec.num_walkers = static_cast<Wid>(rounds) * num_vertices;
  spec.node2vec = {p, q};
  spec.seed = seed;
  return spec;
}

// Exact normalized probability of each out-neighbor of `cur` given predecessor
// `prev` (aligned with graph.neighbors(cur)); the rejection sampler must match this
// distribution (tests).
std::vector<double> Node2VecTransitionProbs(const CsrGraph& graph, Vid cur,
                                            Vid prev, const Node2VecParams& params);

}  // namespace fm

#endif  // SRC_CORE_ALGORITHMS_NODE2VEC_H_
