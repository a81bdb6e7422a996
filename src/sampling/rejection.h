// Second-order (node2vec) edge sampling via rejection (KnightKing-style, §6).
//
// node2vec's transition weight out of `cur` with predecessor `prev` toward candidate
// x is 1/p when x == prev, 1 when x is a neighbor of prev, and 1/q otherwise (Grover
// & Leskovec 2016). Computing the full weight vector per step is O(degree); rejection
// sampling instead proposes a uniform neighbor and accepts with weight/bound, keeping
// the amortized per-step cost O(1) plus one connectivity check — the access pattern
// §5.2 describes ("a connectivity check between a walker's sampled destination and
// its previous stop"). The weight, the accept test and the step every engine runs
// are in src/core/sample_stage.h (Node2VecWeight, Node2VecAccepts, Node2VecStep).
#ifndef SRC_SAMPLING_REJECTION_H_
#define SRC_SAMPLING_REJECTION_H_

namespace fm {

// Precondition: p and q are finite and > 0. Otherwise the rejection bound
// is infinite or a weight is negative, and the accept test never passes
// (FlashMobEngine::Run checks this before walking).
struct Node2VecParams {
  double p = 1.0;  // return parameter
  double q = 1.0;  // in-out parameter
};

}  // namespace fm

#endif  // SRC_SAMPLING_REJECTION_H_
