// deepwalk_corpus: the node-embedding front end the paper's systems feed (§1).
//
// Runs DeepWalk on a graph and materializes skip-gram training pairs — the
// (center, context) vertex pairs within a +-window along each walk — exactly what a
// word2vec-style embedding trainer (GraphVite's GPU side, Tencent's system)
// consumes. Prints corpus statistics and writes the pairs to a file.
//
//   ./deepwalk_corpus [edges.txt] [out_pairs.bin]
#include <cstdio>
#include <exception>

#include "src/fm.h"

namespace {

int Run(int argc, char** argv) {
  using namespace fm;

  CsrGraph raw;
  if (argc > 1) {
    raw = LoadEdgeListText(argv[1], {.remove_self_loops = true,
                                     .remove_zero_degree = true});
  } else {
    std::printf("no edge list given; using the YT stand-in at 0.25 scale\n");
    raw = LoadDataset(DatasetByName("YT"), 0.25);
  }
  DegreeSortedGraph sorted = DegreeSort(raw);
  const CsrGraph& g = sorted.graph;

  const uint32_t kWindow = 5;   // word2vec-style context window
  const uint32_t kSteps = 40;
  FlashMobEngine engine(g);
  WalkSpec spec = DeepWalkSpec(g.num_vertices(), kSteps, /*rounds=*/1);
  WalkResult result = engine.Run(spec);
  std::printf("walk: %.1f ns/step, %llu total steps\n", result.stats.PerStepNs(),
              static_cast<unsigned long long>(result.stats.total_steps));

  // Emit skip-gram pairs via the corpus library (apps/embedding_corpus.h).
  const char* out_path = argc > 2 ? argv[2] : "deepwalk_pairs.bin";
  CorpusOptions corpus;
  corpus.window = kWindow;
  corpus.id_map = &sorted.new_to_old;
  uint64_t pairs = WriteSkipGramPairs(result.paths, corpus, out_path);
  std::printf("wrote %llu skip-gram pairs to %s (%.1f MB)\n",
              static_cast<unsigned long long>(pairs), out_path,
              pairs * 8 / 1048576.0);

  // Corpus sanity statistics: vertex frequency should follow the walk's stationary
  // distribution (~ degree), which downstream negative sampling relies on.
  auto visits = result.paths.VisitCounts(g.num_vertices());
  uint64_t top1pct = 0, total = 0;
  Vid top = std::max<Vid>(g.num_vertices() / 100, 1);
  for (Vid v = 0; v < g.num_vertices(); ++v) {
    total += visits[v];
    if (v < top) {
      top1pct += visits[v];
    }
  }
  std::printf("corpus skew: top-1%% vertices account for %.1f%% of tokens\n",
              100.0 * top1pct / total);
  return 0;
}

}  // namespace

// An unreadable edge list or unwritable output path is one error line and
// exit status 1, not an uncaught exception.
int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
