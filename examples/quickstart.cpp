// Quickstart: load or build a graph, run DeepWalk with FlashMob, inspect output.
//
//   ./quickstart                 # demo on a built-in synthetic graph
//   ./quickstart edges.txt       # walk a text edge list ("u v" per line)
//
// Shows the full public-API flow: GraphBuilder/LoadEdgeListText -> DegreeSort ->
// FlashMobEngine::Run -> PathSet, with IDs mapped back to the caller's labels.
#include <cstdio>
#include <exception>

#include "src/fm.h"

namespace {

int Run(int argc, char** argv) {
  using namespace fm;

  // 1. Obtain a graph.
  CsrGraph raw;
  if (argc > 1) {
    std::printf("loading %s ...\n", argv[1]);
    raw = LoadEdgeListText(argv[1], {.remove_self_loops = true,
                                     .remove_zero_degree = true});
  } else {
    std::printf("generating a demo power-law graph (100k vertices) ...\n");
    PowerLawConfig config;
    config.degrees.num_vertices = 100000;
    config.degrees.avg_degree = 12;
    config.degrees.alpha = 0.8;
    config.shuffle_labels = true;  // pretend the labels arrived in arbitrary order
    raw = GeneratePowerLawGraph(config);
  }
  std::printf("graph: |V|=%u |E|=%llu (CSR %.1f MB)\n", raw.num_vertices(),
              static_cast<unsigned long long>(raw.num_edges()),
              raw.CsrBytes() / 1048576.0);

  // 2. FlashMob requires degree-descending vertex order (§4.1); DegreeSort returns
  //    the relabelled graph plus both ID mappings.
  DegreeSortedGraph sorted = DegreeSort(raw);

  // 3. Walk: 10 rounds of |V| walkers, 80 steps (the DeepWalk tradition).
  FlashMobEngine engine(sorted.graph);
  WalkSpec spec = DeepWalkSpec(sorted.graph.num_vertices(), /*steps=*/80,
                               /*rounds=*/1);
  WalkResult result = engine.Run(spec);

  std::printf("\nwalked %llu steps in %.2fs => %.1f ns/step\n",
              static_cast<unsigned long long>(result.stats.total_steps),
              result.stats.times.Total(), result.stats.PerStepNs());
  std::printf("  sample %.2fs | shuffle %.2fs | other %.2fs | episodes %u\n",
              result.stats.times.sample_s, result.stats.times.shuffle_s,
              result.stats.times.other_s, result.stats.episodes);
  std::printf("plan: %u partitions over %u groups\n", engine.plan().num_vps(),
              engine.plan().num_groups());

  // 4. Paths come back in sorted-ID space; map through new_to_old for output.
  std::printf("\nfirst 3 walks (original vertex IDs):\n");
  for (Wid w = 0; w < 3 && w < result.paths.num_walkers(); ++w) {
    std::printf("  walk %llu:", static_cast<unsigned long long>(w));
    auto path = result.paths.Path(w);
    for (size_t i = 0; i < path.size() && i < 10; ++i) {
      std::printf(" %u", sorted.new_to_old[path[i]]);
    }
    std::printf(" ...\n");
  }

  // 5. The other output mode: stream sampled edges to a downstream consumer.
  uint64_t pairs = 0;
  result.paths.StreamEdges([&](Vid, Vid) { ++pairs; });
  std::printf("\nstreamed %llu training edges to the (stub) consumer\n",
              static_cast<unsigned long long>(pairs));
  return 0;
}

}  // namespace

// An unreadable edge list is one error line and exit status 1, not an
// uncaught exception.
int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
