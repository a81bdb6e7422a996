// Statistical walk-correctness oracles: chi-square goodness-of-fit of the
// empirical next-hop frequencies produced by the sample-stage kernels against
// the *exact* transition probabilities read off the CSR.
//
// Methodology: for every start vertex we park `kDraws` walkers on it, run one
// kernel step, and compare the next-hop histogram against the exact per-edge
// distribution with Pearson's chi-square at significance 0.001 (critical value
// from the Wilson–Hilferty approximation in util/stats.h; e.g. dof=7 ->
// ~24.3). All seeds are fixed, so a pass is reproducible — the 0.001 level
// bounds the chance that the *fixed* sampled stream trips the test by luck; it
// did not for the seeds recorded here, and any code change that skews the
// distribution beyond noise moves the statistic by orders of magnitude.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/core/algorithms/node2vec.h"
#include "src/core/presample.h"
#include "src/core/sample_stage.h"
#include "src/graph/degree_sort.h"
#include "src/graph/graph_builder.h"
#include "src/sampling/vertex_alias.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "tests/test_util.h"

namespace fm {
namespace {

constexpr Wid kDraws = 1 << 15;
constexpr double kSignificance = 0.001;

// Deterministic mixed-degree test graph: degrees spread 2..12 so the oracle
// exercises short and long adjacency lists (and, sorted descending, a mix of
// uniform- and mixed-degree partitions). Adjacency lists are duplicate-free,
// every vertex has out-degree >= 2, weights cycle through {1, 2, 3, 4}.
CsrGraph OracleGraph(bool weighted) {
  const Vid n = 24;
  GraphBuilder b(n);
  XorShiftRng rng(2024);
  for (Vid v = 0; v < n; ++v) {
    Degree deg = 2 + static_cast<Degree>(v % 11);
    std::vector<bool> used(n, false);
    used[v] = true;
    for (Degree i = 0; i < deg; ++i) {
      Vid t;
      do {
        t = static_cast<Vid>(rng.NextBounded(n));
      } while (used[t]);
      used[t] = true;
      float w = weighted ? static_cast<float>(1 + (v + i) % 4) : 1.0f;
      b.AddEdge(v, t, w);
    }
  }
  return DegreeSort(b.Build()).graph;
}

// Exact first-order transition probabilities of v's out-edges (aligned with
// graph.neighbors(v)): uniform 1/d(v), or w(e)/sum(w) on weighted graphs.
std::vector<double> FirstOrderProbs(const CsrGraph& g, Vid v, bool weighted) {
  auto nbrs = g.neighbors(v);
  std::vector<double> probs(nbrs.size());
  if (weighted) {
    auto ws = g.neighbor_weights(v);
    double total = 0;
    for (float w : ws) {
      total += w;
    }
    for (size_t i = 0; i < nbrs.size(); ++i) {
      probs[i] = ws[i] / total;
    }
  } else {
    for (size_t i = 0; i < nbrs.size(); ++i) {
      probs[i] = 1.0 / static_cast<double>(nbrs.size());
    }
  }
  return probs;
}

// One first-order kernel step for kDraws walkers parked on v, with fresh
// PresampleBuffers.
std::vector<Vid> RunFirstOrderStep(const CsrGraph& g, const PartitionPlan& plan,
                                   const VertexAliasTables* alias, Vid v,
                                   double stop_probability,
                                   uint64_t chunk_seed) {
  PresampleBuffers buffers(g, plan);
  std::vector<Vid> walkers(kDraws, v);
  NullMemHook hook;
  SampleVpFirstOrder(g, 0, plan.vp(0), &buffers, walkers.data(), kDraws,
                     stop_probability, alias, chunk_seed, hook);
  return walkers;
}

// Runs one first-order kernel step for kDraws walkers parked on each vertex in
// turn and chi-squares the next-hop histogram against the exact distribution.
void CheckFirstOrderOracle(const CsrGraph& g, SamplePolicy policy,
                           bool weighted, uint64_t seed) {
  PartitionPlan plan = PartitionPlan::BuildUniform(g, 1, policy);
  std::unique_ptr<VertexAliasTables> alias;
  if (weighted) {
    alias = std::make_unique<VertexAliasTables>(g, ThreadPool::Global());
  }
  for (Vid v = 0; v < g.num_vertices(); ++v) {
    ASSERT_GE(g.degree(v), 2u);
    const uint64_t chunk_seed = DeriveSeed(seed, v);
    std::vector<Vid> walkers =
        RunFirstOrderStep(g, plan, alias.get(), v, 0.0, chunk_seed);
    std::vector<uint64_t> counts(g.num_vertices(), 0);
    for (Vid next : walkers) {
      ASSERT_TRUE(g.HasEdge(v, next)) << "invalid hop " << v << "->" << next;
      ++counts[next];
    }
    auto nbrs = g.neighbors(v);
    std::vector<double> probs = FirstOrderProbs(g, v, weighted);
    std::vector<uint64_t> observed;
    std::vector<double> expected;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      observed.push_back(counts[nbrs[i]]);
      expected.push_back(probs[i] * kDraws);
    }
    EXPECT_TRUE(ChiSquareTestPasses(observed, expected, kSignificance))
        << "vertex " << v << " deg " << nbrs.size() << " chi2="
        << ChiSquareStatistic(observed, expected) << " > critical("
        << nbrs.size() - 1 << ", 0.001)="
        << ChiSquareCriticalValue(static_cast<uint32_t>(nbrs.size() - 1),
                                  kSignificance);
  }
}

TEST(DistributionOracleTest, DirectSamplingMatchesCsrProbabilities) {
  CheckFirstOrderOracle(OracleGraph(false), SamplePolicy::kDS,
                        /*weighted=*/false, /*seed=*/11);
}

TEST(DistributionOracleTest, PreSamplingMatchesCsrProbabilities) {
  // PS draws travel through per-vertex refill buffers (production batched,
  // consumption sequential); the observable distribution must be identical to
  // DS's — the paper's core "statistically indistinguishable" claim (§4.2).
  CheckFirstOrderOracle(OracleGraph(false), SamplePolicy::kPS,
                        /*weighted=*/false, /*seed=*/12);
}

TEST(DistributionOracleTest, WeightedDirectSamplingMatchesEdgeWeights) {
  CheckFirstOrderOracle(OracleGraph(true), SamplePolicy::kDS,
                        /*weighted=*/true, /*seed=*/13);
}

TEST(DistributionOracleTest, WeightedPreSamplingMatchesEdgeWeights) {
  // Weights are baked in at refill time (alias draw per produced sample);
  // consumers stay oblivious, so the distribution must still match w(e)/sum(w).
  CheckFirstOrderOracle(OracleGraph(true), SamplePolicy::kPS,
                        /*weighted=*/true, /*seed=*/14);
}

TEST(DistributionOracleTest, UniformDegreeFastPathMatchesCsrProbabilities) {
  // A regular graph forces the arithmetic-indexing DS fast path (no offset
  // lookup); it must sample the same uniform distribution.
  GraphBuilder b(16);
  XorShiftRng gen(7);
  for (Vid v = 0; v < 16; ++v) {
    std::vector<bool> used(16, false);
    used[v] = true;
    for (int i = 0; i < 6; ++i) {
      Vid t;
      do {
        t = static_cast<Vid>(gen.NextBounded(16));
      } while (used[t]);
      used[t] = true;
      b.AddEdge(v, t);
    }
  }
  CsrGraph g = DegreeSort(b.Build()).graph;
  PartitionPlan plan = PartitionPlan::BuildUniform(g, 1, SamplePolicy::kDS);
  ASSERT_TRUE(plan.vp(0).uniform_degree);
  CheckFirstOrderOracle(g, SamplePolicy::kDS, /*weighted=*/false, /*seed=*/15);
}

TEST(DistributionOracleTest, Node2VecMatchesExactTransitionProbs) {
  // Second-order rejection sampler against the exact Grover-Leskovec
  // distribution, across contrasting (p, q) regimes and several (prev, cur)
  // edges. prev must be a real predecessor so the 1/p return weight and the
  // connectivity-check 1.0 weight both get exercised.
  CsrGraph g = OracleGraph(false);
  PartitionPlan plan = PartitionPlan::BuildUniform(g, 1, SamplePolicy::kDS);
  NullMemHook hook;
  const Node2VecParams settings[] = {{0.25, 4.0}, {4.0, 0.25}, {1.0, 1.0}};
  uint64_t seed = 21;
  for (const Node2VecParams& params : settings) {
    for (Vid prev = 0; prev < g.num_vertices(); prev += 5) {
      auto prev_nbrs = g.neighbors(prev);
      Vid cur = prev_nbrs[prev_nbrs.size() / 2];
      const uint64_t chunk_seed = seed++;
      std::vector<Vid> walkers(kDraws, cur);
      std::vector<Vid> prevs(kDraws, prev);
      SampleVpNode2Vec(g, plan.vp(0), params, walkers.data(), prevs.data(),
                       kDraws, 0.0, /*update_prevs=*/false, chunk_seed, hook);
      std::vector<uint64_t> counts(g.num_vertices(), 0);
      for (Vid next : walkers) {
        ASSERT_TRUE(g.HasEdge(cur, next));
        ++counts[next];
      }
      auto exact = Node2VecTransitionProbs(g, cur, prev, params);
      auto nbrs = g.neighbors(cur);
      std::vector<uint64_t> observed;
      std::vector<double> expected;
      for (size_t i = 0; i < nbrs.size(); ++i) {
        observed.push_back(counts[nbrs[i]]);
        expected.push_back(exact[i] * kDraws);
      }
      EXPECT_TRUE(ChiSquareTestPasses(observed, expected, kSignificance))
          << "p=" << params.p << " q=" << params.q << " prev=" << prev
          << " cur=" << cur
          << " chi2=" << ChiSquareStatistic(observed, expected);
    }
  }
}

TEST(DistributionOracleTest, MetropolisHastingsMatchesAcceptanceProbs) {
  // MH proposes a uniform neighbor u and accepts with min(1, d(v)/d(u));
  // rejection keeps the walker at v. Exact next-hop distribution:
  //   P(u) = (1/d(v)) * min(1, d(v)/d(u))   for each neighbor u
  //   P(v) = 1 - sum_u P(u)                 (the rejection mass)
  CsrGraph g = OracleGraph(false);
  NullMemHook hook;
  for (Vid v = 0; v < g.num_vertices(); ++v) {
    auto nbrs = g.neighbors(v);
    double dv = static_cast<double>(nbrs.size());
    std::vector<double> probs(nbrs.size());
    double stay = 1.0;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      double du = static_cast<double>(g.degree(nbrs[i]));
      probs[i] = (1.0 / dv) * std::min(1.0, dv / du);
      stay -= probs[i];
    }
    const uint64_t chunk_seed = DeriveSeed(31, v);
    std::vector<Vid> walkers(kDraws, v);
    SampleVpMetropolis(g, walkers.data(), kDraws, 0.0, chunk_seed, hook);
    std::vector<uint64_t> counts(g.num_vertices(), 0);
    for (Vid next : walkers) {
      ASSERT_TRUE(next == v || g.HasEdge(v, next));
      ++counts[next];
    }
    std::vector<uint64_t> observed;
    std::vector<double> expected;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      observed.push_back(counts[nbrs[i]]);
      expected.push_back(probs[i] * kDraws);
    }
    // The rejection bucket only exists when some neighbor out-ranks v.
    if (stay > 1e-9) {
      observed.push_back(counts[v]);
      expected.push_back(stay * kDraws);
    } else {
      ASSERT_EQ(counts[v], 0u);
    }
    EXPECT_TRUE(ChiSquareTestPasses(observed, expected, kSignificance))
        << "vertex " << v
        << " chi2=" << ChiSquareStatistic(observed, expected);
  }
}

TEST(DistributionOracleTest, StopProbabilityBucketsAsBernoulli) {
  // With stop probability s, the next-hop distribution becomes:
  // kInvalidVid with mass s, neighbor u with mass (1-s)/d(v). One more exact
  // oracle the engine's PPR-style termination must satisfy.
  CsrGraph g = OracleGraph(false);
  PartitionPlan plan = PartitionPlan::BuildUniform(g, 1, SamplePolicy::kDS);
  const double s = 0.15;
  const uint64_t chunk_seed = 41;
  const Vid v = 3;
  std::vector<Vid> walkers =
      RunFirstOrderStep(g, plan, nullptr, v, s, chunk_seed);
  auto nbrs = g.neighbors(v);
  std::vector<uint64_t> counts(g.num_vertices(), 0);
  uint64_t stopped = 0;
  for (Vid next : walkers) {
    if (next == kInvalidVid) {
      ++stopped;
    } else {
      ASSERT_TRUE(g.HasEdge(v, next));
      ++counts[next];
    }
  }
  std::vector<uint64_t> observed{stopped};
  std::vector<double> expected{s * kDraws};
  for (Vid u : nbrs) {
    observed.push_back(counts[u]);
    expected.push_back((1.0 - s) / static_cast<double>(nbrs.size()) * kDraws);
  }
  EXPECT_TRUE(ChiSquareTestPasses(observed, expected, kSignificance))
      << "chi2=" << ChiSquareStatistic(observed, expected);
}

}  // namespace
}  // namespace fm
