#include "src/graph/degree_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/gen/powerlaw_graph.h"
#include "src/graph/edge_ranges.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace fm {
namespace {

// The serial algorithm DegreeSort replaced, kept as the bit-exact reference: a
// forward-scan counting sort by descending degree, then a vertex-by-vertex CSR
// rebuild that sorts each relabelled list (with its weights) by target.
DegreeSortedGraph ReferenceDegreeSort(const CsrGraph& graph) {
  Vid n = graph.num_vertices();
  DegreeSortedGraph result;
  result.new_to_old.resize(n);
  result.old_to_new.resize(n);
  if (n == 0) {
    result.graph = CsrGraph({0}, {});
    return result;
  }
  Degree max_deg = graph.MaxDegree();
  std::vector<Eid> counts(static_cast<size_t>(max_deg) + 2, 0);
  for (Vid v = 0; v < n; ++v) {
    ++counts[graph.degree(v)];
  }
  Eid slot = 0;
  for (size_t d = max_deg + 1; d-- > 0;) {
    Eid c = counts[d];
    counts[d] = slot;
    slot += c;
  }
  for (Vid v = 0; v < n; ++v) {
    Vid pos = static_cast<Vid>(counts[graph.degree(v)]++);
    result.new_to_old[pos] = v;
    result.old_to_new[v] = pos;
  }
  std::vector<Eid> offsets(static_cast<size_t>(n) + 1, 0);
  for (Vid nv = 0; nv < n; ++nv) {
    offsets[nv + 1] = offsets[nv] + graph.degree(result.new_to_old[nv]);
  }
  std::vector<Vid> edges(offsets.back());
  std::vector<float> weights(graph.weighted() ? offsets.back() : 0);
  for (Vid nv = 0; nv < n; ++nv) {
    Vid old_v = result.new_to_old[nv];
    Eid write = offsets[nv];
    auto nbrs = graph.neighbors(old_v);
    if (!graph.weighted()) {
      for (Vid old_target : nbrs) {
        edges[write++] = result.old_to_new[old_target];
      }
      std::sort(edges.begin() + offsets[nv], edges.begin() + write);
      continue;
    }
    auto wts = graph.neighbor_weights(old_v);
    std::vector<std::pair<Vid, float>> pairs(nbrs.size());
    for (size_t i = 0; i < nbrs.size(); ++i) {
      pairs[i] = {result.old_to_new[nbrs[i]], wts[i]};
    }
    std::sort(pairs.begin(), pairs.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [target, weight] : pairs) {
      edges[write] = target;
      weights[write] = weight;
      ++write;
    }
  }
  result.graph = CsrGraph(std::move(offsets), std::move(edges), std::move(weights));
  return result;
}

// Builds a CSR straight from per-vertex adjacency lists, unsorted and with
// duplicates kept as given (GraphBuilder would sort or merge them).
CsrGraph FromLists(const std::vector<std::vector<std::pair<Vid, float>>>& lists,
                   bool weighted) {
  std::vector<Eid> offsets{0};
  std::vector<Vid> edges;
  std::vector<float> weights;
  for (const auto& list : lists) {
    for (const auto& [target, weight] : list) {
      edges.push_back(target);
      if (weighted) {
        weights.push_back(weight);
      }
    }
    offsets.push_back(edges.size());
  }
  return CsrGraph(std::move(offsets), std::move(edges), std::move(weights));
}

// Random lists over n vertices: degree skewed toward 0..3 with a few up to
// `max_degree`, targets drawn from `target_range` vertices so duplicates are
// common, and a distinct weight on every edge.
std::vector<std::vector<std::pair<Vid, float>>> RandomLists(
    Vid n, Degree max_degree, Vid target_range, uint64_t seed) {
  XorShiftRng rng(seed);
  std::vector<std::vector<std::pair<Vid, float>>> lists(n);
  float weight = 1.0f;
  for (auto& list : lists) {
    Degree d = rng.NextBounded(8) == 0
                   ? static_cast<Degree>(rng.NextBounded(max_degree + 1))
                   : static_cast<Degree>(rng.NextBounded(4));
    for (Degree i = 0; i < d; ++i) {
      list.emplace_back(static_cast<Vid>(rng.NextBounded(target_range)), weight);
      weight += 0.25f;
    }
  }
  return lists;
}

// DegreeSort on pools of 1, 2, 3 and 8 threads must reproduce the serial
// reference bit for bit: offsets, edges, weights and both mappings.
void ExpectMatchesReference(const CsrGraph& g) {
  DegreeSortedGraph want = ReferenceDegreeSort(g);
  for (uint32_t threads : {1u, 2u, 3u, 8u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    ThreadPool pool(threads);
    DegreeSortedGraph got = DegreeSort(g, pool);
    EXPECT_TRUE(std::ranges::equal(got.graph.offsets(), want.graph.offsets()));
    EXPECT_TRUE(std::ranges::equal(got.graph.edges(), want.graph.edges()));
    EXPECT_EQ(got.graph.weighted(), want.graph.weighted());
    EXPECT_TRUE(std::ranges::equal(got.graph.weights(), want.graph.weights()));
    EXPECT_EQ(got.new_to_old, want.new_to_old);
    EXPECT_EQ(got.old_to_new, want.old_to_new);
  }
}

TEST(DegreeSortTest, ParallelMatchesSerialOnShuffledPowerLaw) {
  // 50k vertices: every equal-degree run spans all chunks at every pool size.
  PowerLawConfig config;
  config.degrees.num_vertices = 50000;
  config.degrees.avg_degree = 8;
  config.shuffle_labels = true;
  ExpectMatchesReference(GeneratePowerLawGraph(config));
}

TEST(DegreeSortTest, ParallelMatchesSerialWithDuplicateWeightedTargets) {
  // Targets from only 16 vertices, so most lists repeat a target with a
  // different weight; the tie order after the re-sort must not move.
  ExpectMatchesReference(FromLists(RandomLists(3000, 60, 16, 7), true));
}

TEST(DegreeSortTest, ParallelMatchesSerialWithTrailingZeroDegrees) {
  auto lists = RandomLists(2000, 40, 2000, 11);
  lists.resize(2600);  // 600 isolated vertices at the end
  ExpectMatchesReference(FromLists(lists, false));
  ExpectMatchesReference(FromLists(lists, true));
}

TEST(DegreeSortTest, ParallelMatchesSerialWithDominantHub) {
  // Vertex 777 holds more than half of all edges.
  auto lists = RandomLists(2000, 10, 2000, 13);
  Eid others = 0;
  for (const auto& list : lists) {
    others += list.size();
  }
  lists[777].clear();
  for (Eid i = 0; i <= others; ++i) {
    lists[777].emplace_back(static_cast<Vid>((i * 7919) % 2000),
                            1.0f + static_cast<float>(i));
  }
  ExpectMatchesReference(FromLists(lists, false));
  ExpectMatchesReference(FromLists(lists, true));
}

TEST(DegreeSortTest, ParallelMatchesSerialWithFewerVerticesThanThreads) {
  ExpectMatchesReference(FromLists({{{0, 1.0f}}}, false));
  ExpectMatchesReference(FromLists({{{2, 1.0f}, {1, 2.0f}}, {}, {{0, 3.0f}}}, true));
  ExpectMatchesReference(SmallGraph());
}

TEST(DegreeSortTest, ParallelMatchesSerialAcrossTheRadixCutoff) {
  // Lists just below, at, just past and far past the length where the rebuild
  // switches from std::sort to the radix sort. Targets come from 24 vertices,
  // so every long list repeats targets, with a distinct weight each time.
  const size_t cutoff = kRadixSortMinLength;
  std::vector<std::vector<std::pair<Vid, float>>> lists(600);
  XorShiftRng rng(23);
  float weight = 1.0f;
  size_t next = 0;
  for (size_t len : {cutoff - 1, cutoff, cutoff + 1, 4 * cutoff}) {
    for (int copies = 0; copies < 8; ++copies) {
      auto& list = lists[(next++ * 37) % lists.size()];
      for (size_t i = 0; i < len; ++i) {
        list.emplace_back(static_cast<Vid>(rng.NextBounded(24)), weight);
        weight += 0.5f;
      }
    }
  }
  for (auto& list : lists) {
    if (list.empty()) {
      list.emplace_back(static_cast<Vid>(rng.NextBounded(600)), weight);
    }
  }
  ExpectMatchesReference(FromLists(lists, false));
  ExpectMatchesReference(FromLists(lists, true));
}

TEST(DegreeSortTest, ParallelMatchesSerialWithThreeByteIdsAndALargeHub) {
  // More than 2^16 vertices, so new ids need three radix digits, and one hub
  // whose list of more than 2^16 entries spans all of them.
  const Vid n = (Vid{1} << 16) + 4000;
  auto lists = RandomLists(n, static_cast<Degree>(3 * kRadixSortMinLength), n, 29);
  auto& hub = lists[n / 2];
  hub.clear();
  for (Vid i = 0; i < (Vid{1} << 16) + 100; ++i) {
    hub.emplace_back(static_cast<Vid>((uint64_t{i} * 7919) % n),
                     1.0f + static_cast<float>(i % 1000));
  }
  ExpectMatchesReference(FromLists(lists, false));
  ExpectMatchesReference(FromLists(lists, true));
}

// The radix sort equals std::sort for every digit count, including keys near
// 2^32 that need the fourth digit, and digits that every key shares (those
// passes are skipped, which changes where the sorted keys land).
TEST(RadixSortKeysTest, MatchesStdSort) {
  XorShiftRng rng(31);
  auto check = [](std::vector<Vid> keys, uint32_t digits) {
    std::vector<Vid> want = keys;
    std::sort(want.begin(), want.end());
    std::vector<Vid> scratch(keys.size() + 3);
    RadixSortKeys(keys, scratch, digits);
    EXPECT_EQ(keys, want) << digits << " digits, " << keys.size() << " keys";
  };
  for (size_t size : {1u, 2u, 33u, 1000u, 70000u}) {
    std::vector<Vid> near_top(size);
    std::vector<Vid> anywhere(size);
    std::vector<Vid> small(size);
    for (size_t i = 0; i < size; ++i) {
      near_top[i] = 0xFFFFFFFFu - static_cast<Vid>(rng.NextBounded(1u << 20));
      anywhere[i] = static_cast<Vid>(rng.Next());
      small[i] = static_cast<Vid>(rng.NextBounded(256));
    }
    check(near_top, 4);
    check(anywhere, 4);
    check(small, 1);
    check(small, 3);
    check(std::vector<Vid>(size, 0xABCDEF12u), 4);
  }
  check({}, 2);
}

// Every range is non-empty, the ranges tile [0, n) in order, and none holds
// more than its share of degree + 1 cost by more than one vertex's cost.
TEST(EdgeRangesTest, TileVerticesAndBalanceCost) {
  PowerLawConfig config;
  config.degrees.num_vertices = 20000;
  config.degrees.avg_degree = 8;
  CsrGraph g = GeneratePowerLawGraph(config);  // degree-sorted: hubs first
  ASSERT_TRUE(IsDegreeSorted(g));
  for (uint32_t threads : {1u, 3u, 8u}) {
    ThreadPool pool(threads);
    std::vector<std::vector<std::pair<Vid, Vid>>> per_worker(threads);
    ParallelForEdgeRanges(pool, g.offsets(), [&](Vid begin, Vid end, uint32_t worker) {
      per_worker[worker].emplace_back(begin, end);
    });
    std::vector<std::pair<Vid, Vid>> ranges;
    for (const auto& list : per_worker) {
      ranges.insert(ranges.end(), list.begin(), list.end());
    }
    std::sort(ranges.begin(), ranges.end());
    ASSERT_FALSE(ranges.empty());
    const uint64_t total = g.num_edges() + g.num_vertices();
    const uint64_t share = total / ranges.size() + 1;
    Vid next = 0;
    for (auto [begin, end] : ranges) {
      EXPECT_EQ(begin, next);
      EXPECT_LT(begin, end);
      uint64_t cost = g.offsets()[end] - g.offsets()[begin] + (end - begin);
      EXPECT_LE(cost, share + g.MaxDegree() + 1);
      next = end;
    }
    EXPECT_EQ(next, g.num_vertices());
  }
}

TEST(EdgeRangesTest, EmptyGraphRunsNothing) {
  ThreadPool pool(4);
  std::vector<Eid> offsets{0};
  ParallelForEdgeRanges(pool, offsets, [](Vid, Vid, uint32_t) { FAIL(); });
}

TEST(DegreeSortTest, ProducesDescendingDegrees) {
  PowerLawConfig config;
  config.degrees.num_vertices = 2000;
  config.degrees.avg_degree = 8;
  config.shuffle_labels = true;
  CsrGraph g = GeneratePowerLawGraph(config);
  EXPECT_FALSE(IsDegreeSorted(g));  // labels were shuffled

  DegreeSortedGraph sorted = DegreeSort(g);
  EXPECT_TRUE(IsDegreeSorted(sorted.graph));
  sorted.graph.CheckValid();
}

TEST(DegreeSortTest, MappingsAreInversePermutations) {
  PowerLawConfig config;
  config.degrees.num_vertices = 500;
  config.degrees.avg_degree = 4;
  config.shuffle_labels = true;
  CsrGraph g = GeneratePowerLawGraph(config);
  DegreeSortedGraph sorted = DegreeSort(g);
  for (Vid v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(sorted.old_to_new[sorted.new_to_old[v]], v);
    EXPECT_EQ(sorted.new_to_old[sorted.old_to_new[v]], v);
  }
}

TEST(DegreeSortTest, PreservesEdgeStructure) {
  CsrGraph g = SmallGraph();
  DegreeSortedGraph sorted = DegreeSort(g);
  EXPECT_EQ(sorted.graph.num_edges(), g.num_edges());
  // Every original edge must exist under the new labels, and vice versa.
  for (Vid v = 0; v < g.num_vertices(); ++v) {
    for (Vid u : g.neighbors(v)) {
      EXPECT_TRUE(
          sorted.graph.HasEdge(sorted.old_to_new[v], sorted.old_to_new[u]));
    }
  }
  for (Vid v = 0; v < sorted.graph.num_vertices(); ++v) {
    for (Vid u : sorted.graph.neighbors(v)) {
      EXPECT_TRUE(g.HasEdge(sorted.new_to_old[v], sorted.new_to_old[u]));
    }
  }
}

TEST(DegreeSortTest, StableWithinEqualDegrees) {
  // Ring: every degree equal; counting sort must keep original order (stability).
  CsrGraph g = RingGraph(16);
  DegreeSortedGraph sorted = DegreeSort(g);
  for (Vid v = 0; v < 16; ++v) {
    EXPECT_EQ(sorted.new_to_old[v], v);
  }
}

TEST(DegreeSortTest, AdjacencyStaysSorted) {
  PowerLawConfig config;
  config.degrees.num_vertices = 300;
  config.degrees.avg_degree = 5;
  config.shuffle_labels = true;
  DegreeSortedGraph sorted = DegreeSort(GeneratePowerLawGraph(config));
  EXPECT_TRUE(sorted.graph.AdjacencySorted());
}

TEST(DegreeSortTest, EmptyGraph) {
  DegreeSortedGraph sorted = DegreeSort(CsrGraph({0}, {}));
  EXPECT_EQ(sorted.graph.num_vertices(), 0u);
}

TEST(DegreeSortTest, AlreadySortedIsIdentity) {
  CsrGraph g = SmallSortedGraph();
  ASSERT_TRUE(IsDegreeSorted(g));
  DegreeSortedGraph sorted = DegreeSort(g);
  std::vector<Vid> identity(g.num_vertices());
  std::iota(identity.begin(), identity.end(), 0);
  EXPECT_EQ(sorted.new_to_old, identity);
}

}  // namespace
}  // namespace fm
