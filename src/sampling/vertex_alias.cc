#include "src/sampling/vertex_alias.h"

#include <vector>

#include "src/graph/edge_ranges.h"
#include "src/util/logging.h"

namespace fm {

VertexAliasTables::VertexAliasTables(const CsrGraph& graph, ThreadPool& pool) {
  FM_CHECK_MSG(graph.weighted(), "VertexAliasTables requires a weighted graph");
  Eid m = graph.num_edges();
  prob_.Allocate(m);
  alias_.Allocate(m);

  ParallelForEdgeRanges(
      pool, graph.offsets(), [&](Vid begin, Vid end, uint32_t) {
        // Vose's algorithm per adjacency list; the work vectors are reused
        // across the range's vertices.
        std::vector<double> scaled;
        std::vector<uint32_t> small;
        std::vector<uint32_t> large;
        for (Vid v = begin; v < end; ++v) {
          Eid base = graph.edge_begin(v);
          Degree deg = graph.degree(v);
          if (deg == 0) {
            continue;
          }
          auto weights = graph.neighbor_weights(v);
          double total = 0;
          for (float w : weights) {
            FM_CHECK_MSG(w > 0, "edge weights must be positive");
            total += w;
          }
          scaled.resize(deg);
          small.clear();
          large.clear();
          for (Degree i = 0; i < deg; ++i) {
            scaled[i] = static_cast<double>(weights[i]) * deg / total;
            (scaled[i] < 1.0 ? small : large).push_back(i);
            prob_[base + i] = 1.0f;
            alias_[base + i] = i;
          }
          while (!small.empty() && !large.empty()) {
            uint32_t s = small.back();
            small.pop_back();
            uint32_t l = large.back();
            large.pop_back();
            prob_[base + s] = static_cast<float>(scaled[s]);
            alias_[base + s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            (scaled[l] < 1.0 ? small : large).push_back(l);
          }
        }
      });
}

}  // namespace fm
