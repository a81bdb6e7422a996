#include "src/core/algorithms/node2vec.h"

#include "src/cachesim/mem_hook.h"
#include "src/core/sample_stage.h"

namespace fm {

std::vector<double> Node2VecTransitionProbs(const CsrGraph& graph, Vid cur,
                                            Vid prev,
                                            const Node2VecParams& params) {
  auto nbrs = graph.neighbors(cur);
  std::vector<double> probs(nbrs.size());
  NullMemHook hook;
  double total = 0;
  for (size_t i = 0; i < nbrs.size(); ++i) {
    probs[i] = Node2VecWeight(graph, prev, nbrs[i], params, hook);
    total += probs[i];
  }
  for (double& p : probs) {
    p /= total;
  }
  return probs;
}

}  // namespace fm
