// Figure 8: overall walk speed, FlashMob vs KnightKing vs GraphVite.
//
// (a) DeepWalk per-step time on the five stand-ins. Paper: KnightKing 2.2-3.8x
//     faster than GraphVite; FlashMob 5.4-13.7x faster than KnightKing.
// (b) node2vec per-step time, FlashMob vs KnightKing (GraphVite omitted as in the
//     paper). Paper: 3.9-19.9x speedup, smaller than DeepWalk's because the
//     second-order connectivity checks break VP locality.
#include "bench/bench_util.h"

namespace fm {
namespace {

struct Row {
  std::string graph;
  double flashmob = 0;
  double flashmob_counts = 0;  // with visit counting on
  double knightking = 0;
  double graphvite = 0;
};

Row RunOne(const DatasetSpec& spec, WalkAlgorithm algorithm, bool with_graphvite,
           const char* series, BenchTrajectory* traj) {
  CsrGraph g = LoadDataset(spec);
  Row row;
  row.graph = spec.name;

  WalkSpec walk = PerfSpec(g, algorithm);
  if (algorithm == WalkAlgorithm::kNode2Vec) {
    // node2vec steps are ~5x costlier; halve the walker rounds to keep the whole
    // suite CI-friendly (per-step times are walker-count invariant here).
    walk.num_walkers = std::max<Wid>(walk.num_walkers / 2, g.num_vertices());
  }
  auto spec_for = [&](const CsrGraph&) { return walk; };

  EngineOptions fm_options = PerfEngineOptions();
  fm_options.collect_counters = traj != nullptr;
  FlashMobEngine fmob(g, fm_options);
  WalkResult fm_run = fmob.Run(spec_for(g));
  row.flashmob = fm_run.stats.PerStepNs();
  if (traj != nullptr) {
    traj->set_backend(fm_run.stats.perf_backend);
    traj->AddCounters(std::string(series) + "/flashmob/" + row.graph,
                      fm_run.stats.counters.Total());
  }

  // Same walk with visit counting on: each VP's sample task counts its chunk
  // before stepping it, plus one scatter per episode for the final positions,
  // so the gap to the counts-off column is the full price of visit statistics.
  EngineOptions counting_options = PerfEngineOptions();
  counting_options.count_visits = true;
  FlashMobEngine fmob_counts(g, counting_options);
  row.flashmob_counts = fmob_counts.Run(spec_for(g)).stats.PerStepNs();

  BaselineOptions base_options;
  base_options.count_visits = false;
  KnightKingEngine knk(g, base_options);
  row.knightking = knk.Run(spec_for(g)).stats.PerStepNs();

  if (with_graphvite) {
    GraphViteEngine gv(g, base_options);
    row.graphvite = gv.Run(spec_for(g)).stats.PerStepNs();
  }
  if (traj != nullptr) {
    traj->Add(std::string(series) + "/flashmob", row.graph, row.flashmob,
              "ns/step");
    traj->Add(std::string(series) + "/flashmob_counts", row.graph,
              row.flashmob_counts, "ns/step");
    traj->Add(std::string(series) + "/knightking", row.graph, row.knightking,
              "ns/step");
    if (with_graphvite) {
      traj->Add(std::string(series) + "/graphvite", row.graph, row.graphvite,
                "ns/step");
    }
  }
  return row;
}

void PrintRows(const std::vector<Row>& rows, bool with_graphvite) {
  std::printf("%-5s %12s %12s %12s", "graph", "FlashMob", "FM+counts",
              "KnightKing");
  if (with_graphvite) {
    std::printf(" %12s", "GraphVite");
  }
  std::printf(" %10s\n", "speedup");
  for (const Row& row : rows) {
    std::printf("%-5s %9.1f ns %9.1f ns %9.1f ns", row.graph.c_str(),
                row.flashmob, row.flashmob_counts, row.knightking);
    if (with_graphvite) {
      std::printf(" %9.1f ns", row.graphvite);
    }
    std::printf(" %9.1fx\n", row.knightking / row.flashmob);
  }
}

}  // namespace
}  // namespace fm

int main(int argc, char** argv) {
  using namespace fm;
  BenchArgs args = ParseBenchArgs(argc, argv);
  BenchTrajectory traj("fig8_overall");
  BenchTrajectory* tp = args.metrics_path.empty() ? nullptr : &traj;
  PrintHeader("Figure 8a: DeepWalk per-step time");
  std::vector<Row> deepwalk;
  for (const DatasetSpec& spec : AllDatasets()) {
    deepwalk.push_back(RunOne(spec, WalkAlgorithm::kDeepWalk, true, "fig8a", tp));
  }
  PrintRows(deepwalk, true);
  std::printf("\npaper: FlashMob 21.5-36.7 ns/step; 5.4-13.7x over KnightKing; "
              "KnightKing 2.2-3.8x over GraphVite\n");

  PrintHeader("Figure 8b: node2vec per-step time (p=2, q=0.5)");
  std::vector<Row> node2vec;
  for (const DatasetSpec& spec : AllDatasets()) {
    node2vec.push_back(
        RunOne(spec, WalkAlgorithm::kNode2Vec, false, "fig8b", tp));
  }
  PrintRows(node2vec, false);
  std::printf("\npaper: 3.9-19.9x speedup over KnightKing (lower than DeepWalk "
              "due to cross-VP connectivity checks)\n");
  MaybeWriteTrajectory(traj, args.metrics_path);
  return 0;
}
