// Umbrella header: the FlashMob public API.
//
// Typical use (see examples/quickstart.cpp):
//
//   fm::GraphBuilder builder;
//   ... AddEdge ...
//   fm::CsrGraph raw = builder.Build({.undirected = true});
//   fm::DegreeSortedGraph sorted = fm::DegreeSort(raw);
//   fm::FlashMobEngine engine(sorted.graph);
//   fm::WalkResult result = engine.Run(fm::DeepWalkSpec(sorted.graph.num_vertices()));
//   // result.paths holds the walks (IDs relabelled; sorted.new_to_old maps back).
#ifndef SRC_FM_H_
#define SRC_FM_H_

#include "src/apps/embedding_corpus.h"
#include "src/apps/pagerank.h"
#include "src/baseline/graphvite_engine.h"
#include "src/baseline/knightking_engine.h"
#include "src/core/algorithms/deepwalk.h"
#include "src/core/algorithms/node2vec.h"
#include "src/core/engine.h"
#include "src/core/metrics.h"
#include "src/core/numa.h"
#include "src/core/profiler.h"
#include "src/core/walk_observer.h"
#include "src/gen/dataset_registry.h"
#include "src/gen/powerlaw_graph.h"
#include "src/gen/rmat.h"
#include "src/gen/toy_graphs.h"
#include "src/gen/uniform_degree.h"
#include "src/graph/degree_sort.h"
#include "src/graph/edge_io.h"
#include "src/graph/graph_builder.h"
#include "src/graph/graph_stats.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/timer.h"

#endif  // SRC_FM_H_
