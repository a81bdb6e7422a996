#include "src/core/presample.h"

#include "src/util/logging.h"

namespace fm {

PresampleBuffers::PresampleBuffers(const CsrGraph& graph,
                                   const PartitionPlan& plan) {
  uint64_t total = 0;
  vp_sample_base_.assign(plan.num_vps(), 0);
  for (uint32_t i = 0; i < plan.num_vps(); ++i) {
    const VertexPartition& vp = plan.vp(i);
    if (vp.policy != SamplePolicy::kPS) {
      continue;
    }
    // Buffer layout invariants: the VP covers a non-empty vertex range whose CSR
    // slice starts at its recorded edge_begin — a mismatch would alias sample
    // buffers between partitions.
    FM_DCHECK_LT(vp.begin, vp.end);
    FM_DCHECK_EQ(vp.edge_begin, graph.edge_begin(vp.begin));
    FM_DCHECK_LE(vp.edge_begin, graph.edge_end(vp.end - 1));
    vp_sample_base_[i] = total;
    total += graph.edge_end(vp.end - 1) - vp.edge_begin;
  }
  if (total == 0) {
    return;
  }
  samples_.Allocate(total);
  cursor_.resize(graph.num_vertices());
  ResetAll();
  // cursor_[v] must start at degree(v) ("empty") for PS vertices; ResetAll handles
  // all vertices uniformly which is harmless for DS vertices (never consulted).
}

void PresampleBuffers::ResetAll() {
  // Mark every buffer exhausted so the next Next() refills it. Degree lookups are
  // avoided by using the saturating sentinel: the maximum Degree value is >= any
  // real degree.
  for (auto& c : cursor_) {
    c = ~Degree{0};
  }
}

}  // namespace fm
