// Uniform step-kernel dispatch — the engine's kernel layer (§4.2).
//
// Binds one run's algorithm choice and kernel inputs (graph, spec, plan,
// pre-sample buffers, alias tables) once, so the engine's per-VP sample task is
// a single SampleVp() call instead of an inline algorithm ladder. Templated on
// the memory hook like the kernels themselves: NullMemHook compiles the
// dispatch down to the bare kernel; CacheSimHook drives the cache simulation.
#ifndef SRC_CORE_STEP_KERNEL_H_
#define SRC_CORE_STEP_KERNEL_H_

#include "src/core/partition_plan.h"
#include "src/core/presample.h"
#include "src/core/sample_stage.h"
#include "src/core/walk_spec.h"
#include "src/graph/csr_graph.h"
#include "src/sampling/vertex_alias.h"
#include "src/util/rng.h"
#include "src/util/sync.h"

namespace fm {

template <typename Hook>
class StepKernel {
 public:
  StepKernel(const CsrGraph& graph, const WalkSpec& spec,
             const PartitionPlan& plan, PresampleBuffers* presample,
             const VertexAliasTables* alias)
      : graph_(graph),
        spec_(spec),
        plan_(plan),
        presample_(presample),
        alias_(alias) {}

  // Moves `vp_index`'s walker chunk one step in place. `prevs` is the
  // predecessor stream chunk (node2vec only; ignored otherwise). Walker i of
  // the chunk draws from its own stream seeded by (chunk_seed, i).
  FM_HOT_PATH void SampleVp(uint32_t vp_index, Vid* walkers, Vid* prevs,
                            Wid count, double stop_probability,
                            uint64_t chunk_seed, Hook& hook) const {
    const VertexPartition& vp = plan_.vp(vp_index);
    switch (spec_.algorithm) {
      case WalkAlgorithm::kNode2Vec:
        SampleVpNode2Vec(graph_, vp, spec_.node2vec, walkers, prevs, count,
                         stop_probability,
                         /*update_prevs=*/!spec_.track_identity, chunk_seed,
                         hook);
        break;
      case WalkAlgorithm::kMetropolisHastings:
        SampleVpMetropolis(graph_, walkers, count, stop_probability,
                           chunk_seed, hook);
        break;
      case WalkAlgorithm::kDeepWalk:
        SampleVpFirstOrder(graph_, vp_index, vp, presample_, walkers, count,
                           stop_probability, alias_, chunk_seed, hook);
        break;
    }
  }

 private:
  const CsrGraph& graph_;
  const WalkSpec& spec_;
  const PartitionPlan& plan_;
  PresampleBuffers* presample_;
  const VertexAliasTables* alias_;
};

}  // namespace fm

#endif  // SRC_CORE_STEP_KERNEL_H_
