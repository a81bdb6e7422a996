// Per-vertex alias tables for O(1) weighted edge sampling across a whole graph.
//
// The classical pre-processing approach to weighted transition sampling (§6 cites
// Walker's alias table among the techniques prior systems build on; KnightKing uses
// alias-based sampling for static distributions). One flat (probability, alias)
// pair per edge, indexed by the same CSR offsets as the edge array — so a weighted
// draw costs exactly one extra random read within the same locality footprint the
// engine already manages per VP.
#ifndef SRC_SAMPLING_VERTEX_ALIAS_H_
#define SRC_SAMPLING_VERTEX_ALIAS_H_

#include <cstdint>
#include <span>

#include "src/graph/csr_graph.h"
#include "src/util/aligned_buffer.h"
#include "src/util/sync.h"
#include "src/util/thread_pool.h"
#include "src/util/types.h"

namespace fm {

class VertexAliasTables {
 public:
  // Builds tables for every vertex of `graph` (which must be weighted); O(|E|),
  // split by edges over `pool`. The tables do not depend on the pool size. Must
  // not be called from inside a job of `pool` (ParallelFor is not reentrant).
  VertexAliasTables(const CsrGraph& graph, ThreadPool& pool);

  // Draws a neighbor index of v (0..degree-1) with probability proportional to its
  // edge weight. v must have degree >= 1.
  template <typename Rng, typename Hook>
  FM_HOT_PATH Degree SampleIndex(const CsrGraph& graph, Vid v, Rng& rng,
                                 Hook& hook) const {
    Eid begin = graph.edge_begin(v);
    Degree deg = static_cast<Degree>(graph.edge_end(v) - begin);
    Degree slot = static_cast<Degree>(rng.NextBounded(deg));
    hook.Load(&prob_[begin + slot], sizeof(float) + sizeof(uint32_t));
    return rng.NextDouble() < prob_[begin + slot] ? slot : alias_[begin + slot];
  }

  // Two-phase variant of SampleIndex for the KnightKing baseline's interleaved
  // ring (src/baseline/interleave.h): PickSlot makes the first draw and returns the
  // absolute table index so the caller can prefetch RowAddr(index), and
  // ResolveSlot makes the second draw against the (now near) row. Calling
  // PickSlot + ResolveSlot consumes the RNG exactly like one SampleIndex
  // call — the split must stay draw-for-draw identical or interleaved and
  // sequential walks diverge.
  template <typename Rng>
  FM_HOT_PATH Eid PickSlot(Eid edge_begin, Degree deg, Rng& rng) const {
    return edge_begin + rng.NextBounded(deg);
  }

  const void* RowAddr(Eid index) const { return &prob_[index]; }

  template <typename Rng, typename Hook>
  FM_HOT_PATH Degree ResolveSlot(Eid edge_begin, Eid index, Rng& rng,
                                 Hook& hook) const {
    hook.Load(&prob_[index], sizeof(float) + sizeof(uint32_t));
    return rng.NextDouble() < prob_[index]
               ? static_cast<Degree>(index - edge_begin)
               : alias_[index];
  }

  // Convenience: the sampled neighbor itself.
  template <typename Rng, typename Hook>
  FM_HOT_PATH Vid SampleNeighbor(const CsrGraph& graph, Vid v, Rng& rng,
                                 Hook& hook) const {
    Eid begin = graph.edge_begin(v);
    Eid pick = begin + SampleIndex(graph, v, rng, hook);
    hook.Load(graph.edges().data() + pick, sizeof(Vid));
    return graph.edges()[pick];
  }

  // The flat tables, indexed like the CSR edge array.
  std::span<const float> prob() const { return {prob_.data(), prob_.size()}; }
  std::span<const uint32_t> alias() const { return {alias_.data(), alias_.size()}; }

  uint64_t table_bytes() const {
    return prob_.size() * (sizeof(float) + sizeof(uint32_t));
  }

 private:
  // Flat arrays parallel to the CSR edge array. Left uninitialized until the
  // build writes every entry, so the pages are first touched by the workers
  // in parallel rather than zero-filled on the calling thread.
  AlignedBuffer<float> prob_;
  AlignedBuffer<uint32_t> alias_;  // neighbor index within the same adjacency list
};

}  // namespace fm

#endif  // SRC_SAMPLING_VERTEX_ALIAS_H_
