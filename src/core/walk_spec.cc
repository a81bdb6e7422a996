#include "src/core/walk_spec.h"

#include <algorithm>
#include <string>

#include "src/core/sample_stage.h"
#include "src/graph/csr_graph.h"

namespace fm {

Status CheckWalkSpec(const WalkSpec& spec, const CsrGraph& graph) {
  const Vid n = graph.num_vertices();
  const std::vector<Vid>& starts = spec.start_vertices;
  const auto bad_start = std::find_if(starts.begin(), starts.end(),
                                      [n](Vid v) { return v >= n; });
  std::string why;
  if (spec.use_edge_weights && !graph.weighted()) {
    why = "use_edge_weights requires a weighted graph";
  } else if (spec.use_edge_weights &&
             spec.algorithm != WalkAlgorithm::kDeepWalk) {
    why = "use_edge_weights is only supported for first-order uniform walks "
          "(DeepWalk)";
  } else if (spec.algorithm == WalkAlgorithm::kNode2Vec &&
             !Node2VecParamsUsable(spec.node2vec)) {
    why = "node2vec requires finite p > 0 and q > 0 whose weights 1, 1/p, "
          "1/q lie within 2^53 of each other";
  } else if (!(spec.stop_probability >= 0 && spec.stop_probability < 1)) {
    why = "stop_probability must lie in [0, 1)";
  } else if (bad_start != starts.end()) {
    why = "start_vertices[" + std::to_string(bad_start - starts.begin()) +
          "] = " + std::to_string(*bad_start) +
          ": start vertex out of range (|V| = " + std::to_string(n) + ")";
  } else if (spec.keep_paths && !spec.track_identity) {
    why = "keep_paths requires track_identity (paths are per-walker)";
  }
  return why.empty() ? Status::Ok() : Status::InvalidArgument(why);
}

}  // namespace fm
