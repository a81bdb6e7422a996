// Edge-sample stage kernels (§4.2).
//
// One task = one vertex partition + the contiguous chunk of the shuffled walker
// array SW holding all walkers currently inside it. The kernel scans the chunk once,
// replacing each walker's current VID with its sampled next stop in place
// ("bandwidth-aware in-place updates ... a single sequential scan, leaving most of
// the cache space to edge data").
//
// RNG-indexing invariant: every walker draws from its own stream, seeded from
// (chunk_seed, walker-index-within-chunk) — WalkerSeed in src/util/rng.h. That
// makes each walker's draw sequence independent of processing order, so walks
// are bit-identical at every thread count.
//
// node2vec is the one kernel whose reads leave the VP: the connectivity check
// binary-searches the predecessor's adjacency list, wherever it lies (§5.2).
// Its step is split into propose (draw a candidate and u, and let u decide
// when the check cannot change the outcome) and resolve (take the check's
// answer). Node2VecStep runs them one walker at a time for the baselines and
// the oracles; SampleVpNode2Vec runs them for kNode2VecLanes walkers at once
// and answers the group's remaining checks as one prefetched lockstep search.
// Both call the same propose and resolve, so the walks are the same.
//
// Kernels are templated on a memory hook (cachesim/mem_hook.h): NullMemHook
// compiles away; CacheSimHook drives the Table 5 / Fig 1b cache simulation.
// Prefetches are hints the hook does not see; every load still goes through it.
#ifndef SRC_CORE_SAMPLE_STAGE_H_
#define SRC_CORE_SAMPLE_STAGE_H_

#include <algorithm>
#include <cmath>

#include "src/cachesim/mem_hook.h"
#include "src/core/presample.h"
#include "src/graph/csr_graph.h"
#include "src/sampling/rejection.h"
#include "src/sampling/vertex_alias.h"
#include "src/util/bits.h"
#include "src/util/rng.h"
#include "src/util/sync.h"
#include "src/util/types.h"

namespace fm {

// Hook-instrumented binary search: does `v`'s sorted adjacency list contain `u`?
// (node2vec's connectivity check, §5.2.)
template <typename Hook>
FM_HOT_PATH bool HasEdgeHooked(const CsrGraph& graph, Vid v, Vid u,
                               Hook& hook) {
  hook.Load(graph.offsets().data() + v, 2 * sizeof(Eid));
  const Vid* edges = graph.edges().data();
  Eid lo = graph.edge_begin(v);
  Eid hi = graph.edge_end(v);
  while (lo < hi) {
    // div: /2 on an unsigned range compiles to a shift; spelled as division
    // for the standard binary-search midpoint idiom.
    Eid mid = lo + (hi - lo) / 2;
    hook.Load(edges + mid, sizeof(Vid));
    if (edges[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < graph.edge_end(v) && edges[lo] == u;
}

// The per-walker steps below are shared by FlashMob's kernels and the
// KnightKing / GraphVite baselines (src/baseline/), so every engine draws the
// same way and a change to a step reaches all of them.

// General CSR direct draw: one offset-pair read, then (for a weighted walk,
// `alias` non-null) one alias-table read, then one edge read. A degree-0
// vertex stays put. In a FlashMob DS kernel the reads stay inside the VP's
// working set; in a baseline they land anywhere in the graph.
template <typename Rng, typename Hook>
FM_HOT_PATH Vid DirectStep(const CsrGraph& graph, Vid v,
                           const VertexAliasTables* alias, Rng& rng,
                           Hook& hook) {
  const Eid* offsets = graph.offsets().data();
  hook.Load(offsets + v, 2 * sizeof(Eid));
  Eid begin = offsets[v];
  Degree deg = static_cast<Degree>(offsets[v + 1] - begin);
  if (deg == 0) {
    return v;
  }
  Eid pick = begin + (alias != nullptr ? alias->SampleIndex(graph, v, rng, hook)
                                       : rng.NextBounded(deg));
  hook.Load(graph.edges().data() + pick, sizeof(Vid));
  return graph.edges()[pick];
}

// Unnormalized node2vec weight of stepping to `candidate` from a vertex whose
// predecessor is `prev`: 1/p back to prev, 1 to a neighbor of prev, 1/q
// otherwise. The connectivity check reads prev's adjacency list, which may lie
// outside the current VP — the locality loss §5.2 cites for node2vec's smaller
// speedup. The exact transition probabilities (Node2VecTransitionProbs) are
// built from it; the walk itself runs the accept test below.
template <typename Hook>
FM_HOT_PATH double Node2VecWeight(const CsrGraph& graph, Vid prev,
                                  Vid candidate, const Node2VecParams& params,
                                  Hook& hook) {
  if (candidate == prev) {
    // div: node2vec bias weights 1/p and 1/q; p and q are runtime parameters,
    // so the quotients cannot fold to shifts. They run once per candidate,
    // not per edge read.
    return 1.0 / params.p;
  }
  if (HasEdgeHooked(graph, prev, candidate, hook)) {
    return 1.0;
  }
  // div: see the 1/p justification above.
  return 1.0 / params.q;
}

// node2vec's accept test, precomputed once per run (or VP chunk) from p and q.
// A proposal draws u and accepts `candidate` when x = u * bound is below the
// candidate's weight: 1/p back to prev, else 1 or 1/q depending on whether
// prev links to the candidate. Only that last choice needs the connectivity
// check, and only when x lies between the two weights it could pick: below
// both, min(1, 1/q), x accepts; at or above both, max(1, 1/q), it rejects
// (KnightKing's pre-acceptance). At p = q = 1 no check ever runs.
struct Node2VecThresholds {
  explicit Node2VecThresholds(const Node2VecParams& params)
      : // div: node2vec bias weights 1/p and 1/q; p and q are runtime
        // parameters, so the quotients cannot fold to shifts. They run once
        // per run or VP chunk, never per walker.
        inv_p(1.0 / params.p),
        // div: see the 1/p justification above.
        inv_q(1.0 / params.q),
        bound(std::max({1.0, inv_p, inv_q})),
        accept_below(std::min(1.0, inv_q)),
        reject_from(std::max(1.0, inv_q)) {}

  double inv_p;         // weight back to prev
  double inv_q;         // weight to a candidate prev does not link to
  double bound;         // rejection bound: the largest weight
  double accept_below;  // min(1, 1/q)
  double reject_from;   // max(1, 1/q)
};

// Whether the accept test can walk node2vec with `params`: p and q finite and
// > 0, 1/p and 1/q finite, and the largest of the weights {1, 1/p, 1/q} at
// most 2^53 times the smallest. The test accepts when u * bound < weight, and
// u = NextDouble() lies on a grid of step 2^-53, so a weight below 2^-53 of
// the bound is accepted only at u == 0, with probability 2^-53 instead of
// weight / bound; a walker whose candidates all carry it practically never
// moves. CheckWalkSpec refuses parameters that fail it.
inline bool Node2VecParamsUsable(const Node2VecParams& params) {
  if (!(std::isfinite(params.p) && params.p > 0 && std::isfinite(params.q) &&
        params.q > 0)) {
    return false;
  }
  const Node2VecThresholds t(params);
  return std::isfinite(t.bound) &&
         t.bound <= 0x1p53 * std::min({1.0, t.inv_p, t.inv_q});
}

// What a proposal's uniform draw settles before the connectivity check.
enum class Node2VecVerdict : uint8_t { kAccept, kReject, kCheck };

// One proposed step: the candidate, its scaled draw x = u * bound, and what x
// settles without the check.
struct Node2VecProposal {
  Vid candidate = kInvalidVid;
  double x = 0;
  Node2VecVerdict verdict = Node2VecVerdict::kAccept;
};

// Pre-decision: draws u for `candidate` and decides whatever the draw alone
// decides. The check draws no random numbers, so drawing u before it leaves
// every walker's draw sequence as it was.
template <typename Rng>
FM_HOT_PATH Node2VecProposal Node2VecPreDecide(Vid prev, Vid candidate,
                                               const Node2VecThresholds& t,
                                               Rng& rng) {
  Node2VecProposal proposal{candidate, rng.NextDouble() * t.bound,
                            Node2VecVerdict::kCheck};
  if (candidate == prev) {
    proposal.verdict = proposal.x < t.inv_p ? Node2VecVerdict::kAccept
                                            : Node2VecVerdict::kReject;
  } else if (proposal.x < t.accept_below) {
    proposal.verdict = Node2VecVerdict::kAccept;
  } else if (proposal.x >= t.reject_from) {
    proposal.verdict = Node2VecVerdict::kReject;
  }
  return proposal;
}

// Resolve: a parked proposal's outcome once the check says whether prev links
// to the candidate (weight 1) or not (weight 1/q).
FM_HOT_PATH inline bool Node2VecResolve(const Node2VecProposal& proposal,
                                        bool connected,
                                        const Node2VecThresholds& t) {
  return proposal.x < (connected ? 1.0 : t.inv_q);
}

// Propose: draws a uniform candidate from the current vertex's list
// `[begin, begin + deg)`, deg > 0, then pre-decides it. With no predecessor
// (`prev` == kInvalidVid, a walk's first step) the candidate is accepted
// without a draw of u — a uniform first-order step.
template <typename Rng, typename Hook>
FM_HOT_PATH Node2VecProposal Node2VecPropose(const CsrGraph& graph, Eid begin,
                                             Degree deg, Vid prev,
                                             const Node2VecThresholds& t,
                                             Rng& rng, Hook& hook) {
  const Eid pick = begin + rng.NextBounded(deg);
  hook.Load(graph.edges().data() + pick, sizeof(Vid));
  const Vid candidate = graph.edges()[pick];
  if (prev == kInvalidVid) {
    return {candidate, 0, Node2VecVerdict::kAccept};
  }
  return Node2VecPreDecide(prev, candidate, t, rng);
}

// node2vec's accept test for an already drawn `candidate` (KnightKing's ring
// reads the candidate itself): pre-decide, and check prev's list only when the
// draw left the outcome open.
template <typename Rng, typename Hook>
FM_HOT_PATH bool Node2VecAccepts(const CsrGraph& graph, Vid prev,
                                 Vid candidate, const Node2VecThresholds& t,
                                 Rng& rng, Hook& hook) {
  const Node2VecProposal proposal = Node2VecPreDecide(prev, candidate, t, rng);
  if (proposal.verdict != Node2VecVerdict::kCheck) {
    return proposal.verdict == Node2VecVerdict::kAccept;
  }
  return Node2VecResolve(proposal, HasEdgeHooked(graph, prev, candidate, hook),
                         t);
}

// One node2vec step from `cur`, one walker at a time: propose, check when the
// proposal is parked, resolve, until a candidate is accepted. A degree-0
// vertex stays put. The loop ends with probability 1 when
// Node2VecParamsUsable holds (acceptance >= min weight / bound > 0).
template <typename Rng, typename Hook>
FM_HOT_PATH Vid Node2VecStep(const CsrGraph& graph, Vid cur, Vid prev,
                             const Node2VecThresholds& t, Rng& rng,
                             Hook& hook) {
  const Eid* offsets = graph.offsets().data();
  hook.Load(offsets + cur, 2 * sizeof(Eid));
  const Eid begin = offsets[cur];
  const Degree deg = static_cast<Degree>(offsets[cur + 1] - begin);
  if (deg == 0) {
    return cur;
  }
  while (true) {
    const Node2VecProposal proposal =
        Node2VecPropose(graph, begin, deg, prev, t, rng, hook);
    if (proposal.verdict == Node2VecVerdict::kAccept ||
        (proposal.verdict == Node2VecVerdict::kCheck &&
         Node2VecResolve(proposal,
                         HasEdgeHooked(graph, prev, proposal.candidate, hook),
                         t))) {
      return proposal.candidate;
    }
  }
}

// Walkers SampleVpNode2Vec moves as one group. Their connectivity checks run
// together (Node2VecCheckLanes), so up to this many probes into prev lists
// outside the VP are in flight at once. On node2vec-fs (4-core VM) 16 lanes
// walked at 45.1 ns/step, 32 at 39.8 and 64 at 40.3.
inline constexpr uint32_t kNode2VecLanes = 32;

// One walker of SampleVpNode2Vec's group: its stream, its vertex's adjacency
// span, its current proposal and, while that proposal is parked, the part of
// prev's list the check has left: the last element <= the candidate lies in
// [probe, probe + span).
template <typename Rng>
struct Node2VecLane {
  Rng rng{0};  // re-seeded per walker
  Vid cur = 0;
  Vid prev = kInvalidVid;
  Vid next = 0;
  Degree deg = 0;
  Eid begin = 0;
  Node2VecProposal proposal;
  const Vid* probe = nullptr;
  Eid span = 0;
  bool connected = false;
};

// The connectivity checks of the parked lanes `ids[0..n)`, answered together:
// does prev's sorted list hold the candidate? A branchless search for the last
// element <= the candidate advances every query by one probe per pass and
// prefetches that query's next probe, so the queries' cache misses overlap
// instead of queueing behind one another (ThunderRW's idea, applied to the one
// read the VP layout cannot keep cache-resident). No probe leaves prev's list,
// and an empty list is answered without one. The answers equal
// HasEdgeHooked's, so the walks do not change.
template <typename Rng, typename Hook>
FM_HOT_PATH void Node2VecCheckLanes(const CsrGraph& graph,
                                    Node2VecLane<Rng>* lanes,
                                    const uint32_t* ids, uint32_t n,
                                    Hook& hook) {
  const Eid* offsets = graph.offsets().data();
  const Vid* edges = graph.edges().data();
  uint32_t searching[kNode2VecLanes];  // lanes whose prev list is non-empty
  uint32_t narrowing[kNode2VecLanes];  // lanes with more than one element left
  uint32_t num_searching = 0;
  uint32_t num_narrowing = 0;
  for (uint32_t k = 0; k < n; ++k) {
    Node2VecLane<Rng>& lane = lanes[ids[k]];
    hook.Load(offsets + lane.prev, 2 * sizeof(Eid));
    const Eid begin = offsets[lane.prev];
    lane.probe = edges + begin;
    lane.span = offsets[lane.prev + 1] - begin;
    lane.connected = false;
    if (lane.span > 0) {
      // div: halving an unsigned span compiles to a shift; spelled as division
      // for the binary-search midpoint idiom.
      PrefetchRead(lane.probe + lane.span / 2);
      searching[num_searching++] = ids[k];
      narrowing[num_narrowing] = ids[k];
      num_narrowing += lane.span > 1;
    }
  }
  while (num_narrowing > 0) {
    uint32_t still = 0;
    for (uint32_t k = 0; k < num_narrowing; ++k) {
      Node2VecLane<Rng>& lane = lanes[narrowing[k]];
      // div: see the midpoint justification above.
      const Eid half = lane.span / 2;
      hook.Load(lane.probe + half, sizeof(Vid));
      lane.probe += lane.probe[half] <= lane.proposal.candidate ? half : 0;
      lane.span -= half;
      // div: see the midpoint justification above.
      PrefetchRead(lane.probe + lane.span / 2);
      narrowing[still] = narrowing[k];
      still += lane.span > 1;
    }
    num_narrowing = still;
  }
  for (uint32_t k = 0; k < num_searching; ++k) {
    Node2VecLane<Rng>& lane = lanes[searching[k]];
    hook.Load(lane.probe, sizeof(Vid));
    lane.connected = *lane.probe == lane.proposal.candidate;
  }
}

// First-order sampling (DeepWalk when `alias` is null, weighted transitions when
// it points at the graph's VertexAliasTables) over one VP's walker chunk.
// `walkers[0..count)` hold VIDs inside `vp`; each is overwritten with the next stop.
// `stop_probability` > 0 stochastically terminates walkers (they become
// kInvalidVid). Walker i draws from XorShiftRng(WalkerSeed(chunk_seed, i)).
template <typename Hook, typename Rng = XorShiftRng>
FM_HOT_PATH void SampleVpFirstOrder(const CsrGraph& graph, uint32_t vp_index,
                        const VertexPartition& vp, PresampleBuffers* presample,
                        Vid* walkers, Wid count, double stop_probability,
                        const VertexAliasTables* alias, uint64_t chunk_seed,
                        Hook& hook) {
  const Vid* edges = graph.edges().data();
  for (Wid i = 0; i < count; ++i) {
    hook.Load(walkers + i, sizeof(Vid));
    Vid v = walkers[i];
    Rng rng(WalkerSeed(chunk_seed, i));
    Vid next;
    if (vp.policy == SamplePolicy::kPS) {
      next = presample->Next(graph, vp_index, vp, v, alias, rng, hook);
    } else if (vp.uniform_degree && alias == nullptr) {
      // Regular-partition fast path: position by arithmetic, no offset lookup
      // (§4.2 "low-degree partitions allow simpler indexing").
      Degree deg = vp.degree;
      if (deg == 0) {
        next = v;
      } else {
        Eid base = vp.edge_begin + static_cast<Eid>(v - vp.begin) * deg;
        Eid pick = base + (deg == 1 ? 0 : rng.NextBounded(deg));
        hook.Load(edges + pick, sizeof(Vid));
        next = edges[pick];
      }
    } else {
      next = DirectStep(graph, v, alias, rng, hook);
    }
    if (stop_probability > 0 && rng.NextDouble() < stop_probability) {
      next = kInvalidVid;
    }
    walkers[i] = next;
    hook.Store(walkers + i, sizeof(Vid));
  }
}

// Metropolis-Hastings sampling over one VP's walker chunk: propose a uniform
// neighbor, accept with min(1, d(v)/d(u)). The acceptance check reads the
// candidate's degree, which may live outside the VP — the same (milder) locality
// leak node2vec's connectivity check has.
template <typename Hook, typename Rng = XorShiftRng>
FM_HOT_PATH void SampleVpMetropolis(const CsrGraph& graph, Vid* walkers,
                                    Wid count, double stop_probability,
                                    uint64_t chunk_seed, Hook& hook) {
  const Vid* edges = graph.edges().data();
  const Eid* offsets = graph.offsets().data();
  for (Wid i = 0; i < count; ++i) {
    hook.Load(walkers + i, sizeof(Vid));
    Vid v = walkers[i];
    Rng rng(WalkerSeed(chunk_seed, i));
    hook.Load(offsets + v, 2 * sizeof(Eid));
    Eid begin = offsets[v];
    Degree deg = static_cast<Degree>(offsets[v + 1] - begin);
    Vid next = v;
    if (deg > 0) {
      Eid pick = begin + rng.NextBounded(deg);
      hook.Load(edges + pick, sizeof(Vid));
      Vid candidate = edges[pick];
      hook.Load(offsets + candidate, 2 * sizeof(Eid));
      Degree cand_deg =
          static_cast<Degree>(offsets[candidate + 1] - offsets[candidate]);
      // Accept with min(1, d(v)/d(u)); rejection means the walker stays put.
      if (cand_deg <= deg ||
          rng.NextDouble() * static_cast<double>(cand_deg) <
              static_cast<double>(deg)) {
        next = candidate;
      }
    }
    if (stop_probability > 0 && rng.NextDouble() < stop_probability) {
      next = kInvalidVid;
    }
    walkers[i] = next;
    hook.Store(walkers + i, sizeof(Vid));
  }
}

// Second-order node2vec sampling over one VP's walker chunk. `prevs` carries each
// walker's predecessor (kInvalidVid for the first step => uniform first-order step).
// On return, walkers[i] holds the next stop. When `update_prevs` is set, prevs[i]
// is overwritten with the pre-step location (identity-free mode); otherwise the
// engine re-derives predecessors from the path rows.
//
// The chunk moves kNode2VecLanes walkers at a time. Each round proposes for
// every walker of the group still without a next stop, answers the parked
// proposals' checks together (Node2VecCheckLanes) and resolves them; rejected
// walkers propose again next round. Walker i draws from
// XorShiftRng(WalkerSeed(chunk_seed, i)) in Node2VecStep's order (candidate,
// then u, per proposal; then the stop draw), so the walks equal a
// Node2VecStep loop bit for bit. The proposal tallies go to `*counts` when it
// is non-null.
template <typename Hook, typename Rng = XorShiftRng>
FM_HOT_PATH void SampleVpNode2Vec(const CsrGraph& graph,
                                  const VertexPartition& /*vp*/,
                                  const Node2VecParams& params, Vid* walkers,
                                  Vid* prevs, Wid count,
                                  double stop_probability, bool update_prevs,
                                  uint64_t chunk_seed, Hook& hook,
                                  Node2VecCounts* counts = nullptr) {
  const Node2VecThresholds thresholds(params);
  const Eid* offsets = graph.offsets().data();
  Node2VecCounts tally;
  Node2VecLane<Rng> lanes[kNode2VecLanes];
  uint32_t open[kNode2VecLanes];    // lanes still proposing
  uint32_t parked[kNode2VecLanes];  // lanes waiting on a check
  for (Wid first = 0; first < count; first += kNode2VecLanes) {
    const uint32_t group =
        static_cast<uint32_t>(std::min<Wid>(kNode2VecLanes, count - first));
    uint32_t num_open = 0;
    for (uint32_t k = 0; k < group; ++k) {
      const Wid i = first + k;
      Node2VecLane<Rng>& lane = lanes[k];
      hook.Load(walkers + i, sizeof(Vid));
      hook.Load(prevs + i, sizeof(Vid));
      lane.cur = walkers[i];
      lane.prev = prevs[i];
      lane.rng.Seed(WalkerSeed(chunk_seed, i));
      hook.Load(offsets + lane.cur, 2 * sizeof(Eid));
      lane.begin = offsets[lane.cur];
      lane.deg = static_cast<Degree>(offsets[lane.cur + 1] - lane.begin);
      lane.next = lane.cur;  // a degree-0 vertex stays put
      open[num_open] = k;
      num_open += lane.deg > 0;
    }
    while (num_open > 0) {
      uint32_t still_open = 0;
      uint32_t num_parked = 0;
      for (uint32_t j = 0; j < num_open; ++j) {
        const uint32_t k = open[j];
        Node2VecLane<Rng>& lane = lanes[k];
        lane.proposal = Node2VecPropose(graph, lane.begin, lane.deg, lane.prev,
                                        thresholds, lane.rng, hook);
        tally.proposals += lane.prev != kInvalidVid;
        switch (lane.proposal.verdict) {
          case Node2VecVerdict::kAccept:
            tally.pre_decided += lane.prev != kInvalidVid;
            lane.next = lane.proposal.candidate;
            break;
          case Node2VecVerdict::kReject:
            ++tally.pre_decided;
            open[still_open++] = k;
            break;
          case Node2VecVerdict::kCheck:
            ++tally.checks;
            PrefetchRead(offsets + lane.prev);
            parked[num_parked++] = k;
            break;
        }
      }
      if (num_parked > 0) {
        Node2VecCheckLanes(graph, lanes, parked, num_parked, hook);
        for (uint32_t j = 0; j < num_parked; ++j) {
          Node2VecLane<Rng>& lane = lanes[parked[j]];
          if (Node2VecResolve(lane.proposal, lane.connected, thresholds)) {
            lane.next = lane.proposal.candidate;
          } else {
            open[still_open++] = parked[j];
          }
        }
      }
      num_open = still_open;
    }
    for (uint32_t k = 0; k < group; ++k) {
      const Wid i = first + k;
      Node2VecLane<Rng>& lane = lanes[k];
      Vid next = lane.next;
      if (stop_probability > 0 && lane.rng.NextDouble() < stop_probability) {
        next = kInvalidVid;
      }
      if (update_prevs) {
        prevs[i] = lane.cur;
        hook.Store(prevs + i, sizeof(Vid));
      }
      walkers[i] = next;
      hook.Store(walkers + i, sizeof(Vid));
    }
  }
  if (counts != nullptr) {
    *counts += tally;
  }
}

}  // namespace fm

#endif  // SRC_CORE_SAMPLE_STAGE_H_
