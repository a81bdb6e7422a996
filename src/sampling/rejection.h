// Second-order (node2vec) edge sampling via rejection (KnightKing-style, §6).
//
// node2vec's transition weight out of `cur` with predecessor `prev` toward candidate
// x is 1/p when x == prev, 1 when x is a neighbor of prev, and 1/q otherwise (Grover
// & Leskovec 2016). Computing the full weight vector per step is O(degree); rejection
// sampling instead proposes a uniform neighbor and accepts with weight/bound, keeping
// the amortized per-step cost O(1) plus one connectivity check — the access pattern
// §5.2 describes ("a connectivity check between a walker's sampled destination and
// its previous stop"). The weight, the accept test and the step every engine runs
// are in src/core/sample_stage.h (Node2VecWeight; Node2VecThresholds with
// Node2VecPropose / Node2VecResolve, which Node2VecAccepts, Node2VecStep and
// FlashMob's lockstep SampleVpNode2Vec share).
#ifndef SRC_SAMPLING_REJECTION_H_
#define SRC_SAMPLING_REJECTION_H_

#include <cstdint>

namespace fm {

// Precondition: Node2VecParamsUsable (src/core/sample_stage.h). p and q are
// finite and > 0, 1/p and 1/q are finite, and the largest of the weights
// {1, 1/p, 1/q} is at most 2^53 times the smallest. Otherwise the rejection
// bound is infinite, a weight is not positive, or a weight lies below the
// accept test's resolution, and the walk hangs (FlashMobEngine::Run, the
// baselines and fmwalk check it before walking).
struct Node2VecParams {
  double p = 1.0;  // return parameter
  double q = 1.0;  // in-out parameter
};

// Accept-test tallies of a node2vec walk (WalkStats::node2vec). A proposal of
// a walker with a predecessor faces the test; the uniform draw alone decides
// it (`pre_decided`) or it waits on a connectivity check (`checks`), so
// proposals == pre_decided + checks. A walk's first step proposes once and is
// not counted.
struct Node2VecCounts {
  uint64_t proposals = 0;
  uint64_t pre_decided = 0;
  uint64_t checks = 0;

  Node2VecCounts& operator+=(const Node2VecCounts& o) {
    proposals += o.proposals;
    pre_decided += o.pre_decided;
    checks += o.checks;
    return *this;
  }
};

}  // namespace fm

#endif  // SRC_SAMPLING_REJECTION_H_
