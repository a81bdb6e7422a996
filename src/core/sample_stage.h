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
// Kernels are templated on a memory hook (cachesim/mem_hook.h): NullMemHook
// compiles away; CacheSimHook drives the Table 5 / Fig 1b cache simulation.
#ifndef SRC_CORE_SAMPLE_STAGE_H_
#define SRC_CORE_SAMPLE_STAGE_H_

#include <algorithm>

#include "src/cachesim/mem_hook.h"
#include "src/core/presample.h"
#include "src/graph/csr_graph.h"
#include "src/sampling/rejection.h"
#include "src/sampling/vertex_alias.h"
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
// speedup.
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

// Rejection bound: the largest node2vec weight.
inline double Node2VecBound(const Node2VecParams& params) {
  // div: reciprocals of the runtime p and q; callers hoist the bound out of
  // their per-walker loops.
  return std::max({1.0, 1.0 / params.p, 1.0 / params.q});
}

// node2vec's accept test (sampling/rejection.h): accept `candidate` with
// probability weight / bound, using one uniform draw.
template <typename Rng, typename Hook>
FM_HOT_PATH bool Node2VecAccepts(const CsrGraph& graph, Vid prev,
                                 Vid candidate, const Node2VecParams& params,
                                 double bound, Rng& rng, Hook& hook) {
  const double w = Node2VecWeight(graph, prev, candidate, params, hook);
  return rng.NextDouble() * bound < w;
}

// One node2vec step from `cur`: propose a uniform neighbor until the accept
// test passes. With no predecessor (`prev` == kInvalidVid, a walk's first
// step) the first proposal is taken — a uniform first-order step. A degree-0
// vertex stays put. The loop ends with probability 1 (acceptance >= min weight
// / bound > 0).
template <typename Rng, typename Hook>
FM_HOT_PATH Vid Node2VecStep(const CsrGraph& graph, Vid cur, Vid prev,
                             const Node2VecParams& params, double bound,
                             Rng& rng, Hook& hook) {
  const Vid* edges = graph.edges().data();
  const Eid* offsets = graph.offsets().data();
  hook.Load(offsets + cur, 2 * sizeof(Eid));
  Eid begin = offsets[cur];
  Degree deg = static_cast<Degree>(offsets[cur + 1] - begin);
  if (deg == 0) {
    return cur;
  }
  while (true) {
    Eid pick = begin + rng.NextBounded(deg);
    hook.Load(edges + pick, sizeof(Vid));
    Vid candidate = edges[pick];
    if (prev == kInvalidVid ||
        Node2VecAccepts(graph, prev, candidate, params, bound, rng, hook)) {
      return candidate;
    }
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
template <typename Hook, typename Rng = XorShiftRng>
FM_HOT_PATH void SampleVpNode2Vec(const CsrGraph& graph,
                                  const VertexPartition& /*vp*/,
                                  const Node2VecParams& params, Vid* walkers,
                                  Vid* prevs, Wid count,
                                  double stop_probability, bool update_prevs,
                                  uint64_t chunk_seed, Hook& hook) {
  const double bound = Node2VecBound(params);
  for (Wid i = 0; i < count; ++i) {
    hook.Load(walkers + i, sizeof(Vid));
    hook.Load(prevs + i, sizeof(Vid));
    Vid cur = walkers[i];
    Rng rng(WalkerSeed(chunk_seed, i));
    Vid next = Node2VecStep(graph, cur, prevs[i], params, bound, rng, hook);
    if (stop_probability > 0 && rng.NextDouble() < stop_probability) {
      next = kInvalidVid;
    }
    if (update_prevs) {
      prevs[i] = cur;
      hook.Store(prevs + i, sizeof(Vid));
    }
    walkers[i] = next;
    hook.Store(walkers + i, sizeof(Vid));
  }
}

}  // namespace fm

#endif  // SRC_CORE_SAMPLE_STAGE_H_
