// Randomized end-to-end property tests: random graphs (weights, self-loops,
// duplicates, dead ends, shuffled labels) x random walk specifications, checked
// against the engines' global invariants and against CheckWalkSpec with one
// rule broken at a time, plus randomized corrupt-CSR cases covering every
// header field and payload invariant the loaders validate. Each parameter is
// an independent seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/baseline/graphvite_engine.h"
#include "src/baseline/knightking_engine.h"
#include "src/core/engine.h"
#include "src/graph/degree_sort.h"
#include "src/graph/edge_io.h"
#include "src/graph/graph_builder.h"
#include "src/util/rng.h"

namespace fm {
namespace {

struct FuzzCase {
  CsrGraph graph;
  WalkSpec spec;
  EngineOptions options;
};

FuzzCase MakeCase(uint64_t seed) {
  XorShiftRng rng(DeriveSeed(0xF022, seed));
  FuzzCase c;

  // Random graph: 50..2000 vertices, avg degree 1..12, random features.
  Vid n = 50 + static_cast<Vid>(rng.NextBounded(1950));
  uint64_t edges = n * (1 + rng.NextBounded(12));
  bool weighted = rng.NextBounded(2) == 0;
  GraphBuilder builder(n);
  for (uint64_t e = 0; e < edges; ++e) {
    Vid u = static_cast<Vid>(rng.NextBounded(n));
    Vid v = static_cast<Vid>(rng.NextBounded(n));  // self loops allowed
    float w = weighted ? 0.25f + static_cast<float>(rng.NextBounded(16)) : 1.0f;
    builder.AddEdge(u, v, w);
    if (rng.NextBounded(4) == 0) {
      builder.AddEdge(u, v, w);  // duplicates
    }
  }
  BuildOptions build;
  build.remove_self_loops = rng.NextBounded(2) == 0;
  build.remove_duplicate_edges = rng.NextBounded(2) == 0;
  c.graph = DegreeSort(builder.Build(build)).graph;

  // Random walk spec.
  c.spec.steps = 1 + static_cast<uint32_t>(rng.NextBounded(12));
  c.spec.num_walkers = 100 + rng.NextBounded(20000);
  c.spec.seed = seed * 77 + 5;
  c.spec.keep_paths = rng.NextBounded(2) == 0;
  c.spec.track_identity = c.spec.keep_paths || rng.NextBounded(2) == 0;
  c.spec.use_edge_weights = c.graph.weighted() && rng.NextBounded(2) == 0;
  if (rng.NextBounded(3) == 0) {
    c.spec.stop_probability = 0.1 + 0.3 * rng.NextDouble();
  }
  if (rng.NextBounded(3) == 0) {
    c.spec.algorithm = WalkAlgorithm::kNode2Vec;
    c.spec.node2vec = {0.25 + rng.NextDouble() * 3, 0.25 + rng.NextDouble() * 3};
    c.spec.use_edge_weights = false;  // unsupported combination
  }
  if (rng.NextBounded(4) == 0) {
    // Seeded starts from a random subset.
    uint32_t k = 1 + static_cast<uint32_t>(rng.NextBounded(5));
    for (uint32_t i = 0; i < k; ++i) {
      c.spec.start_vertices.push_back(
          static_cast<Vid>(rng.NextBounded(c.graph.num_vertices())));
    }
  }
  if (rng.NextBounded(3) == 0) {
    c.options.dram_budget_bytes = 1 << 18;  // force multiple episodes
  }
  if (c.spec.algorithm == WalkAlgorithm::kDeepWalk &&
      !c.spec.use_edge_weights && rng.NextBounded(5) == 0) {
    c.spec.algorithm = WalkAlgorithm::kMetropolisHastings;
  }
  // Spec corners, drawn after every draw above so the cases those draws made
  // keep their specs: walks that die off within a few steps, walks of no
  // steps, and episodes at EpisodeCapacity's 1,024-walker floor.
  if (rng.NextBounded(4) == 0) {
    c.spec.stop_probability = 0.4 + 0.55 * rng.NextDouble();
  }
  if (rng.NextBounded(6) == 0) {
    c.spec.steps = 0;
  }
  if (rng.NextBounded(5) == 0) {
    c.options.dram_budget_bytes = 1;
  }
  return c;
}

// Whether every kept path is a walk on the graph: each step follows an edge
// (or stays on a dead end), and a Metropolis-Hastings walker may also stay
// put on a rejected proposal.
bool PathsValid(const FuzzCase& c, const PathSet& paths) {
  if (c.spec.algorithm != WalkAlgorithm::kMetropolisHastings) {
    return paths.ValidAgainst(c.graph);
  }
  for (Wid w = 0; w < paths.num_walkers(); ++w) {
    for (uint32_t s = 0; s < paths.steps(); ++s) {
      const Vid from = paths.At(w, s);
      const Vid to = paths.At(w, s + 1);
      if (from == kInvalidVid) {
        break;
      }
      if (to != kInvalidVid && to != from && !c.graph.HasEdge(from, to)) {
        return false;
      }
    }
  }
  return true;
}

// The invariants every engine's run of `c` keeps.
void ExpectWalkInvariants(const FuzzCase& c, const WalkResult& result) {
  // Step accounting: never more than walkers x steps; exact when nothing dies.
  uint64_t max_steps =
      static_cast<uint64_t>(c.spec.num_walkers) * c.spec.steps;
  EXPECT_LE(result.stats.total_steps, max_steps);
  if (c.spec.stop_probability == 0) {
    EXPECT_EQ(result.stats.total_steps, max_steps);
  }

  // Visit accounting: starts + live steps; steps whose walker terminated produce
  // no visit, so the equality is exact only without stochastic termination.
  uint64_t visits = 0;
  for (uint64_t v : result.visit_counts) {
    visits += v;
  }
  EXPECT_LE(visits, result.stats.total_steps + c.spec.num_walkers);
  if (c.spec.stop_probability == 0) {
    EXPECT_EQ(visits, result.stats.total_steps + c.spec.num_walkers);
  }

  // Paths, when kept, are valid walks and complete.
  if (c.spec.keep_paths) {
    EXPECT_EQ(result.paths.num_walkers(), c.spec.num_walkers);
    EXPECT_TRUE(PathsValid(c, result.paths));
    if (!c.spec.start_vertices.empty()) {
      for (Wid w = 0; w < result.paths.num_walkers(); ++w) {
        ASSERT_NE(std::find(c.spec.start_vertices.begin(),
                            c.spec.start_vertices.end(), result.paths.At(w, 0)),
                  c.spec.start_vertices.end());
      }
    }
  }
}

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzTest, EngineInvariantsHold) {
  FuzzCase c = MakeCase(GetParam());
  FlashMobEngine engine(c.graph, c.options);
  WalkResult result = engine.Run(c.spec);
  ExpectWalkInvariants(c, result);

  // Per-VP accounting matches the total.
  uint64_t vp_sum = 0;
  for (uint64_t v : result.stats.vp_walker_steps) {
    vp_sum += v;
  }
  EXPECT_EQ(vp_sum, result.stats.total_steps);

  // Determinism: the same case reruns identically.
  FlashMobEngine engine2(c.graph, c.options);
  WalkResult result2 = engine2.Run(c.spec);
  EXPECT_EQ(result.visit_counts, result2.visit_counts);

  // keep_paths moves the walker rows, not the walks: a tracked case walks the
  // same with it flipped, as long as both runs fit one episode (the modes
  // size episodes differently, and episodes seed their walks apart).
  if (c.spec.track_identity && result.stats.episodes == 1) {
    WalkSpec flipped = c.spec;
    flipped.keep_paths = !flipped.keep_paths;
    WalkResult other = engine2.Run(flipped);
    if (other.stats.episodes == 1) {
      EXPECT_EQ(other.visit_counts, result.visit_counts);
      EXPECT_EQ(other.stats.total_steps, result.stats.total_steps);
    }
  }
}

// One rule of CheckWalkSpec broken in an otherwise walkable spec, and the
// field its message must name.
struct BrokenSpec {
  WalkSpec spec;
  const char* field;
};

// Every way this case's spec can break one rule: a start vertex past |V|;
// node2vec p or q of 0, -1, NaN, inf or 1e-310; a stop probability of -0.5,
// 1, 1.5 or NaN; edge weights on an unweighted graph or with node2vec; and
// keep_paths without track_identity.
std::vector<BrokenSpec> BreakOneRule(const FuzzCase& c, XorShiftRng& rng) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Vid n = c.graph.num_vertices();
  std::vector<BrokenSpec> broken;
  auto add = [&](const char* field, auto&& mutate) {
    BrokenSpec b{c.spec, field};
    mutate(b.spec);
    broken.push_back(std::move(b));
  };
  add("start_vertices", [&](WalkSpec& s) {
    const Vid bad = n + static_cast<Vid>(rng.NextBounded(kInvalidVid - n));
    s.start_vertices.insert(
        s.start_vertices.begin() +
            static_cast<std::ptrdiff_t>(
                rng.NextBounded(s.start_vertices.size() + 1)),
        bad);
  });
  for (double bad : {0.0, -1.0, nan, inf, 1e-310}) {
    for (bool on_p : {true, false}) {
      add("node2vec", [&](WalkSpec& s) {
        if (s.algorithm != WalkAlgorithm::kNode2Vec) {
          s.algorithm = WalkAlgorithm::kNode2Vec;
          s.node2vec = {};
        }
        s.use_edge_weights = false;
        (on_p ? s.node2vec.p : s.node2vec.q) = bad;
      });
    }
  }
  for (double bad : {-0.5, 1.0, 1.5, nan}) {
    add("stop_probability", [&](WalkSpec& s) { s.stop_probability = bad; });
  }
  add("use_edge_weights", [&](WalkSpec& s) {
    s.use_edge_weights = true;
    if (!c.graph.weighted()) {
      s.algorithm = WalkAlgorithm::kDeepWalk;  // weights on an unweighted graph
    } else if (s.algorithm != WalkAlgorithm::kNode2Vec) {
      s.algorithm = WalkAlgorithm::kNode2Vec;  // weights with node2vec
      s.node2vec = {};
    }
  });
  add("keep_paths", [&](WalkSpec& s) {
    s.keep_paths = true;
    s.track_identity = false;
  });
  return broken;
}

TEST_P(FuzzTest, SpecContractRefusesEachBrokenRule) {
  FuzzCase c = MakeCase(GetParam());
  ASSERT_TRUE(CheckWalkSpec(c.spec, c.graph).ok())
      << CheckWalkSpec(c.spec, c.graph).message();
  XorShiftRng rng(DeriveSeed(0x5BEC, GetParam()));
  for (const BrokenSpec& b : BreakOneRule(c, rng)) {
    const Status status = CheckWalkSpec(b.spec, c.graph);
    ASSERT_FALSE(status.ok()) << b.field;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << b.field;
    EXPECT_NE(status.message().find(b.field), std::string::npos)
        << b.field << ": " << status.message();
  }
}

TEST_P(FuzzTest, AcceptedSpecsWalkOnTheBaselines) {
  // Whatever CheckWalkSpec accepts, the baselines walk too (all but
  // Metropolis-Hastings, which they do not implement), keeping the same
  // invariants as FlashMob.
  FuzzCase c = MakeCase(GetParam());
  ASSERT_TRUE(CheckWalkSpec(c.spec, c.graph).ok());
  if (c.spec.algorithm == WalkAlgorithm::kMetropolisHastings) {
    GTEST_SKIP() << "the baselines do not walk Metropolis-Hastings";
  }
  for (bool mersenne : {true, false}) {
    BaselineOptions options;
    options.use_mersenne = mersenne;
    options.interleave_depth = 8;
    SCOPED_TRACE(mersenne ? "Mersenne" : "xorshift");
    ExpectWalkInvariants(c, KnightKingEngine(c.graph, options).Run(c.spec));
    ExpectWalkInvariants(c, GraphViteEngine(c.graph, options).Run(c.spec));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range<uint64_t>(0, 24));

// --- corrupt CSR fuzzing ----------------------------------------------------
// One randomized mutation per seed. Header mutations target a field the loader
// treats as untrusted (magic, num_vertices, num_edges) or the payload length
// those counts are validated against (truncation / trailing garbage), so the
// counts no longer match the file size. Payload mutations keep the header
// consistent and break what a CsrGraph needs instead: an edge target outside
// [0, |V|), offsets that do not rise from 0, a last offset other than |E|, or
// a weight that is not finite and > 0. Every mutation is invalid by design, so
// both the copying and the mmap loader must reject it with a clean error,
// never crash, abort or over-allocate.

std::vector<uint8_t> ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void WriteAllBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

class CorruptHeaderFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CorruptHeaderFuzzTest, HostileHeadersAndPayloadsAreRejectedCleanly) {
  const uint64_t seed = GetParam();
  const uint64_t mutation = seed % 9;
  XorShiftRng rng(DeriveSeed(0xC5A, seed));

  // A small random graph, weighted half the time so both payload layouts
  // (edges only / edges + weights) get corrupted, and always when the
  // mutation corrupts a weight.
  Vid n = 20 + static_cast<Vid>(rng.NextBounded(200));
  bool weighted = rng.NextBounded(2) == 0 || mutation == 8;
  GraphBuilder builder(n);
  for (uint64_t e = 0; e < n * 4ull; ++e) {
    builder.AddEdge(static_cast<Vid>(rng.NextBounded(n)),
                    static_cast<Vid>(rng.NextBounded(n)),
                    weighted ? 1.0f + static_cast<float>(rng.NextBounded(8))
                             : 1.0f);
  }
  CsrGraph graph = builder.Build({});
  ASSERT_GT(graph.num_edges(), 0u);
  ASSERT_EQ(graph.weighted(), weighted);
  std::string path =
      (std::filesystem::temp_directory_path() /
       ("fm_fuzz_csr_" + std::to_string(seed) + ".csr"))
          .string();
  SaveCsrBinary(graph, path);

  std::vector<uint8_t> bytes = ReadAllBytes(path);
  ASSERT_GE(bytes.size(), 24u);
  auto load64 = [&](size_t off) {
    uint64_t v;
    std::memcpy(&v, bytes.data() + off, sizeof(v));
    return v;
  };
  auto store64 = [&](size_t off, uint64_t v) {
    std::memcpy(bytes.data() + off, &v, sizeof(v));
  };
  const uint64_t num_edges = graph.num_edges();
  const size_t offsets_at = 24;
  const size_t edges_at = offsets_at + (n + 1) * sizeof(Eid);
  const size_t weights_at = edges_at + num_edges * sizeof(Vid);
  const size_t edge = rng.NextBounded(num_edges);

  constexpr uint64_t kMagic = 0x464D435352303031ULL;          // FMCSR001
  constexpr uint64_t kWeightedMagic = 0x464D435352303032ULL;  // FMCSR002
  switch (mutation) {
    case 0: {  // random non-CSR magic
      uint64_t magic = load64(0) ^ (1 + rng.NextBounded((1ull << 32) - 1));
      while (magic == kMagic || magic == kWeightedMagic) {
        ++magic;
      }
      store64(0, magic);
      break;
    }
    case 1:  // vertex count no longer matches the payload (or blows Vid range)
      store64(8, load64(8) + 1 + rng.NextBounded(1ull << 20));
      break;
    case 2:  // edge count no longer matches the payload
      store64(16, load64(16) + 1 + rng.NextBounded(1ull << 20));
      break;
    case 3:  // truncation: counts now claim more payload than exists
      bytes.resize(bytes.size() - (1 + rng.NextBounded(16)));
      break;
    case 4:  // trailing garbage: payload larger than the counts account for
      for (uint64_t k = 0, end = 1 + rng.NextBounded(16); k < end; ++k) {
        bytes.push_back(static_cast<uint8_t>(rng.NextBounded(256)));
      }
      break;
    case 5: {  // an edge target at or past |V|
      Vid target = n + static_cast<Vid>(rng.NextBounded(kInvalidVid - n + 1ull));
      std::memcpy(bytes.data() + edges_at + edge * sizeof(Vid), &target,
                  sizeof(target));
      break;
    }
    case 6: {  // offset v above offset v+1 (v = 0 also breaks the 0 start)
      Vid v = static_cast<Vid>(rng.NextBounded(n));
      store64(offsets_at + v * sizeof(Eid),
              load64(offsets_at + (v + 1) * sizeof(Eid)) + 1 +
                  rng.NextBounded(1000));
      break;
    }
    case 7:  // last offset past |E| (still monotone)
      store64(offsets_at + n * sizeof(Eid),
              num_edges + 1 + rng.NextBounded(1ull << 20));
      break;
    default: {  // a weight that is zero, negative, NaN or infinite
      const float kBad[] = {0.0f, -1.0f - static_cast<float>(rng.NextBounded(8)),
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
      float w = kBad[seed / 9 % 5];
      std::memcpy(bytes.data() + weights_at + edge * sizeof(float), &w,
                  sizeof(w));
      break;
    }
  }
  WriteAllBytes(path, bytes);

  EXPECT_THROW(LoadCsrBinary(path), std::runtime_error) << "seed " << seed;
  EXPECT_THROW(LoadCsrBinaryMapped(path), std::runtime_error)
      << "seed " << seed;
  std::filesystem::remove(path);
}

// 45 seeds: every mutation five times, and each bad weight once.
INSTANTIATE_TEST_SUITE_P(Seeds, CorruptHeaderFuzzTest,
                         ::testing::Range<uint64_t>(0, 45));

}  // namespace
}  // namespace fm
