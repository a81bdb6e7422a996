#include "src/gen/powerlaw_graph.h"

#include <algorithm>
#include <numeric>

#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace fm {
namespace {

// Finds the vertex owning cumulative-degree position `pos` via binary search on the
// exclusive prefix-sum array.
inline Vid OwnerOf(const std::vector<Eid>& prefix, Eid pos) {
  auto it = std::upper_bound(prefix.begin(), prefix.end(), pos);
  return static_cast<Vid>((it - prefix.begin()) - 1);
}

}  // namespace

CsrGraph GeneratePowerLawGraph(const PowerLawConfig& config) {
  std::vector<Degree> degrees = ZipfDegreeSequence(config.degrees);
  Vid n = config.degrees.num_vertices;

  std::vector<Eid> offsets(static_cast<size_t>(n) + 1, 0);
  for (Vid v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + degrees[v];
  }
  Eid total_edges = offsets[n];
  std::vector<Vid> edges(total_edges);
  std::vector<float> weights(config.random_weights ? total_edges : 0);

  // Degree-proportional target sampling: a uniform position in [0, total_edges) maps
  // to a vertex with probability proportional to its degree. One RNG stream per
  // chunk of vertices, seeded by the chunk's index rather than by the worker that
  // happens to run it, so the graph depends only on the seed and the pool size.
  ThreadPool& pool = ThreadPool::Global();
  const uint64_t chunks = pool.thread_count();
  pool.ParallelFor(chunks, [&](uint64_t chunk, uint32_t) {
    XorShiftRng rng(DeriveSeed(config.seed, 0x50574C00ULL + chunk));
    const Vid end = static_cast<Vid>(n * (chunk + 1) / chunks);
    for (Vid v = static_cast<Vid>(n * chunk / chunks); v < end; ++v) {
      Eid out = offsets[v];
      for (Degree d = 0; d < degrees[v]; ++d) {
        Vid target;
        int attempts = 0;
        do {
          if (config.locality > 0 && rng.NextDouble() < config.locality) {
            // Nearby-rank target: uniform window centred on v.
            uint64_t window = std::min<uint64_t>(config.locality_window, n);
            uint64_t lo = (v > window / 2) ? v - window / 2 : 0;
            if (lo + window > n) {
              lo = n - window;
            }
            target = static_cast<Vid>(lo + rng.NextBounded(window));
          } else {
            target = OwnerOf(offsets, rng.NextBounded(total_edges));
          }
        } while (target == v && n > 1 && ++attempts < 8);
        if (config.random_weights) {
          weights[out] = 0.5f + 8.0f * static_cast<float>(rng.NextDouble());
        }
        edges[out++] = target;
      }
      if (config.random_weights) {
        // Sort (target, weight) pairs together.
        Eid begin = offsets[v];
        Eid end = offsets[v + 1];
        std::vector<std::pair<Vid, float>> pairs(end - begin);
        for (Eid i = begin; i < end; ++i) {
          pairs[i - begin] = {edges[i], weights[i]};
        }
        std::sort(pairs.begin(), pairs.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        for (Eid i = begin; i < end; ++i) {
          edges[i] = pairs[i - begin].first;
          weights[i] = pairs[i - begin].second;
        }
      } else {
        std::sort(edges.begin() + offsets[v], edges.begin() + offsets[v + 1]);
      }
    }
  });

  if (!config.shuffle_labels) {
    return CsrGraph(std::move(offsets), std::move(edges), std::move(weights));
  }
  FM_CHECK_MSG(!config.random_weights,
               "shuffle_labels + random_weights not supported together");

  // Random relabelling (Fisher–Yates) to exercise callers' DegreeSort path.
  std::vector<Vid> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  XorShiftRng rng(DeriveSeed(config.seed, 0x5045524DULL));
  for (Vid i = n; i-- > 1;) {
    Vid j = static_cast<Vid>(rng.NextBounded(i + 1));
    std::swap(perm[i], perm[j]);
  }
  std::vector<Eid> new_offsets(static_cast<size_t>(n) + 1, 0);
  for (Vid v = 0; v < n; ++v) {
    new_offsets[perm[v] + 1] = degrees[v];
  }
  for (Vid v = 0; v < n; ++v) {
    new_offsets[v + 1] += new_offsets[v];
  }
  std::vector<Vid> new_edges(total_edges);
  for (Vid v = 0; v < n; ++v) {
    Eid write = new_offsets[perm[v]];
    for (Vid t : std::span<const Vid>(edges.data() + offsets[v], degrees[v])) {
      new_edges[write++] = perm[t];
    }
    std::sort(new_edges.begin() + new_offsets[perm[v]], new_edges.begin() + write);
  }
  return CsrGraph(std::move(new_offsets), std::move(new_edges));
}

}  // namespace fm
