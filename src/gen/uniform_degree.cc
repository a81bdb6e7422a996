#include "src/gen/uniform_degree.h"

#include <algorithm>

#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace fm {

CsrGraph GenerateUniformDegreeGraph(Vid num_vertices, Degree degree, uint64_t seed,
                                    Vid target_universe) {
  FM_CHECK(num_vertices > 0);
  if (target_universe == 0) {
    target_universe = num_vertices;
  }
  std::vector<Eid> offsets(static_cast<size_t>(num_vertices) + 1);
  for (Vid v = 0; v <= num_vertices; ++v) {
    offsets[v] = static_cast<Eid>(v) * degree;
  }
  std::vector<Vid> edges(offsets.back());
  // One RNG stream per chunk, seeded by the chunk's index rather than by the
  // worker that happens to run it (a worker running two chunks would repeat its
  // stream), so the graph depends only on the seed and the pool size.
  ThreadPool& pool = ThreadPool::Global();
  const uint64_t chunks = pool.thread_count();
  pool.ParallelFor(chunks, [&](uint64_t chunk, uint32_t) {
    XorShiftRng rng(DeriveSeed(seed, 0x554E4900ULL + chunk));
    const Vid end = static_cast<Vid>(num_vertices * (chunk + 1) / chunks);
    for (Vid v = static_cast<Vid>(num_vertices * chunk / chunks); v < end; ++v) {
      Eid out = offsets[v];
      for (Degree i = 0; i < degree; ++i) {
        edges[out + i] = static_cast<Vid>(rng.NextBounded(target_universe));
      }
      std::sort(edges.begin() + out, edges.begin() + out + degree);
    }
  });
  return CsrGraph(std::move(offsets), std::move(edges));
}

}  // namespace fm
