#include "src/apps/pagerank.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/core/engine.h"
#include "src/util/logging.h"

namespace fm {

std::vector<double> EstimatePageRank(const CsrGraph& graph,
                                     const PageRankOptions& options) {
  FM_CHECK(options.damping > 0 && options.damping < 1);
  Vid n = graph.num_vertices();

  WalkSpec spec;
  spec.steps = options.max_steps;
  spec.num_walkers = static_cast<Wid>(options.walkers_per_vertex) * n;
  spec.stop_probability = 1.0 - options.damping;
  spec.seed = options.seed;
  spec.keep_paths = false;
  spec.use_edge_weights = graph.weighted();
  if (options.personalization.empty()) {
    // Global PageRank restarts uniformly over vertices.
    spec.start_vertices.resize(n);
    std::iota(spec.start_vertices.begin(), spec.start_vertices.end(), 0);
  } else {
    spec.start_vertices = options.personalization;
  }

  // The estimator only needs the engine's visit histogram, which it counts
  // inside the parallel sample stages.
  FlashMobEngine engine(graph);
  const std::vector<uint64_t> visit_counts = engine.Run(spec).visit_counts;

  uint64_t total = 0;
  for (uint64_t c : visit_counts) {
    total += c;
  }
  std::vector<double> rank(n, 0.0);
  if (total == 0) {
    return rank;
  }
  for (Vid v = 0; v < n; ++v) {
    rank[v] = static_cast<double>(visit_counts[v]) /
              static_cast<double>(total);
  }
  return rank;
}

std::vector<double> PowerIterationPageRank(const CsrGraph& graph,
                                           const PageRankOptions& options,
                                           uint32_t iterations) {
  Vid n = graph.num_vertices();
  std::vector<double> restart(n, 0.0);
  if (options.personalization.empty()) {
    std::fill(restart.begin(), restart.end(), 1.0 / n);
  } else {
    double share = 1.0 / static_cast<double>(options.personalization.size());
    for (Vid v : options.personalization) {
      restart[v] += share;
    }
  }

  double d = options.damping;
  std::vector<double> rank = restart;
  std::vector<double> next(n);
  for (uint32_t it = 0; it < iterations; ++it) {
    for (Vid v = 0; v < n; ++v) {
      next[v] = (1.0 - d) * restart[v];
    }
    for (Vid v = 0; v < n; ++v) {
      if (rank[v] == 0.0) {
        continue;
      }
      double mass = d * rank[v];
      Degree deg = graph.degree(v);
      if (deg == 0) {
        next[v] += mass;  // dead ends hold their mass (walker stay-put semantics)
        continue;
      }
      auto nbrs = graph.neighbors(v);
      if (graph.weighted()) {
        auto wts = graph.neighbor_weights(v);
        double total_w = 0;
        for (float w : wts) {
          total_w += w;
        }
        for (size_t i = 0; i < nbrs.size(); ++i) {
          next[nbrs[i]] += mass * wts[i] / total_w;
        }
      } else {
        double share = mass / deg;
        for (Vid u : nbrs) {
          next[u] += share;
        }
      }
    }
    rank.swap(next);
  }
  return rank;
}

double L1Distance(const std::vector<double>& a, const std::vector<double>& b) {
  FM_CHECK(a.size() == b.size());
  double acc = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    acc += std::fabs(a[i] - b[i]);
  }
  return acc;
}

}  // namespace fm
