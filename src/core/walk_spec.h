// Specification of a random walk workload.
#ifndef SRC_CORE_WALK_SPEC_H_
#define SRC_CORE_WALK_SPEC_H_

#include <cstdint>
#include <vector>

#include "src/sampling/rejection.h"
#include "src/util/status.h"
#include "src/util/types.h"

namespace fm {

class CsrGraph;

enum class WalkAlgorithm {
  kDeepWalk,  // first-order, uniform transition probability (Perozzi et al. 2014)
  kNode2Vec,  // second-order, p/q interpolation between BFS and DFS (Grover 2016)
  // Metropolis-Hastings walk: propose a uniform neighbor u, accept with
  // min(1, d(v)/d(u)), else stay. Stationary distribution is uniform over
  // vertices (on undirected graphs) — the standard unbiased vertex-sampling walk
  // (degree-bias-free aggregate estimation).
  kMetropolisHastings,
};

struct WalkSpec {
  WalkAlgorithm algorithm = WalkAlgorithm::kDeepWalk;

  // Steps per walker. Evaluation tradition (§5.1): 80.
  uint32_t steps = 80;

  // Total walkers to launch; 0 means |V|. The engine splits them into episodes that
  // fit the DRAM budget (§5.1 "our number of walkers per episode is configured at
  // runtime based on DRAM capacity").
  Wid num_walkers = 0;

  Node2VecParams node2vec;

  // First-order transitions proportional to edge weights instead of uniform
  // (requires a weighted graph; §2.1's general transition-probability
  // specification). Sampling goes through per-vertex alias tables, both in PS
  // refills and DS draws. Not supported together with node2vec.
  bool use_edge_weights = false;

  uint64_t seed = 1;

  // Custom start vertices: walker j starts at start_vertices[j % size()]. Empty =
  // the paper's default placement (uniform over edges, i.e. degree-proportional).
  // Used by seeded workloads: personalized PageRank, GraphSage-style minibatch
  // neighborhood sampling.
  std::vector<Vid> start_vertices;

  // Retain full path history (all W_i arrays, §4.3 "Random walk paths output").
  // When false, only visit counts and final positions are kept — the mode used when
  // streaming sampled edges to a downstream consumer.
  bool keep_paths = true;

  // Stochastic termination: probability of a walker exiting after each step (§2.1
  // "walkers exiting with a fixed probability at each step"). Terminated walkers park
  // in a dead bin skipped by the sample stage.
  double stop_probability = 0.0;

  // Track walker identity across steps (§4.3's reverse shuffle). When false — only
  // allowed with keep_paths == false — the engine skips the Gather pass entirely
  // and treats the sampled SW array as the next step's walker array. Walkers become
  // anonymous (per-walker paths are meaningless) but every aggregate — visit
  // counts, edge samples, stationary distribution — is unchanged, and one of the
  // three streaming passes per step disappears. An extension beyond the paper,
  // ablated in bench/ablation_design.
  bool track_identity = true;
};

// The rules of a walkable spec, stated once for FlashMobEngine, both
// baselines and fmwalk: edge weights need a weighted graph and DeepWalk,
// node2vec needs Node2VecParamsUsable, stop_probability lies in [0, 1), every
// start vertex is below |V|, and keep_paths needs track_identity. A broken
// rule is InvalidArgument, with a message that names the field.
Status CheckWalkSpec(const WalkSpec& spec, const CsrGraph& graph);

}  // namespace fm

#endif  // SRC_CORE_WALK_SPEC_H_
