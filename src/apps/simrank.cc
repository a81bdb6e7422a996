#include "src/apps/simrank.h"

#include <algorithm>
#include <cmath>

#include "src/core/engine.h"
#include "src/core/walk_observer.h"
#include "src/graph/degree_sort.h"
#include "src/graph/transpose.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/sync.h"
#include "src/util/thread_pool.h"

namespace fm {
namespace {

// One coupled backward-walk sample: returns c^T for the meeting time T, or 0.
double OneSample(const CsrGraph& reverse, Vid a, Vid b,
                 const SimRankOptions& options, XorShiftRng& rng) {
  if (a == b) {
    return 1.0;
  }
  double contribution = options.decay;
  for (uint32_t step = 0; step < options.max_steps; ++step) {
    Degree da = reverse.degree(a);
    Degree db = reverse.degree(b);
    if (da == 0 || db == 0) {
      return 0.0;  // a walk with no in-neighbors can never meet
    }
    a = reverse.neighbors(a)[rng.NextBounded(da)];
    b = reverse.neighbors(b)[rng.NextBounded(db)];
    if (a == b) {
      return contribution;
    }
    contribution *= options.decay;
  }
  return 0.0;  // truncated: treat as never meeting (bias < c^max_steps)
}

// Resolves coupled-walk meetings from the engine's streaming walker rows.
// Walkers 2q and 2q + 1 form coupled pair q; both run as ordinary engine
// walkers, and this observer replays OneSample's resolution rules on each
// walker-order row: meet at row t => contribution decay^t; a degree-0 position
// kills the pair (the engine's stay-put dead ends must not be allowed to
// "meet" later); truncation => 0.
//
// Rows arrive as parallel chunks. A pair fully inside a chunk resolves
// in-chunk: chunk boundaries are fixed for the whole run (ParallelChunks
// chunking is deterministic and each row pass is a barrier), so pair state has
// exactly one writer and row order is preserved. A pair straddling a chunk (or
// episode) boundary is buffered under a mutex and replayed in row order at run
// end — both halves always get buffered, because the partner walker is the
// leading element of the next chunk.
class PairMeetingObserver : public WalkObserver {
 public:
  PairMeetingObserver(const CsrGraph& graph, uint64_t num_coupled)
      : graph_(graph), state_(num_coupled, kOpen), met_row_(num_coupled, 0) {}

  bool WantsWalkerChunks() const override { return true; }

  void OnEpisodeBegin(uint64_t /*episode*/, Wid /*walkers*/,
                      Wid base_walker) override {
    base_walker_ = base_walker;
  }

  void OnPlacementChunk(Wid begin, std::span<const Vid> positions,
                        uint32_t /*worker*/) override {
    ProcessRow(0, base_walker_ + begin, positions);
  }

  void OnWalkerChunk(uint32_t step, Wid begin, std::span<const Vid> positions,
                     uint32_t /*worker*/) override {
    ProcessRow(step + 1, base_walker_ + begin, positions);
  }

  void OnRunEnd() override {
    // The engine's final barrier means no OnWalkerChunk writer is live here,
    // but take the lock anyway: the replay is O(boundary) and uncontended, and
    // it keeps every boundary_ access provably under mu_ (thread-safety
    // analysis flagged this replay as the one unlocked access).
    MutexLock lock(mu_);
    std::sort(boundary_.begin(), boundary_.end(), [](const Half& x, const Half& y) {
      return x.row != y.row ? x.row < y.row : x.walker < y.walker;
    });
    FM_CHECK(boundary_.size() % 2 == 0);
    for (size_t i = 0; i < boundary_.size(); i += 2) {
      const Half& a = boundary_[i];
      const Half& b = boundary_[i + 1];
      FM_CHECK(a.row == b.row && b.walker == a.walker + 1);
      Resolve(a.row, a.walker / 2, a.pos, b.pos);
    }
    boundary_.clear();
  }

  bool Met(uint64_t q) const { return state_[q] == kMet; }
  uint32_t MetRow(uint64_t q) const { return met_row_[q]; }

 private:
  enum State : uint8_t { kOpen, kMet, kDead };

  struct Half {
    uint32_t row;
    Wid walker;  // run-global walker id
    Vid pos;
  };

  void ProcessRow(uint32_t row, Wid gbegin, std::span<const Vid> positions) {
    if (positions.empty()) {
      return;
    }
    Wid gend = gbegin + positions.size();
    Wid j = gbegin;
    if (j % 2 == 1) {
      BufferHalf(row, j, positions[0]);
      ++j;
    }
    for (; j + 1 < gend; j += 2) {
      Resolve(row, j / 2, positions[j - gbegin], positions[j + 1 - gbegin]);
    }
    if (j < gend) {
      BufferHalf(row, j, positions[j - gbegin]);
    }
  }

  void BufferHalf(uint32_t row, Wid walker, Vid pos) {
    MutexLock lock(mu_);
    boundary_.push_back({row, walker, pos});
  }

  void Resolve(uint32_t row, uint64_t q, Vid a, Vid b) {
    if (state_[q] != kOpen) {
      return;
    }
    if (a == kInvalidVid || b == kInvalidVid) {
      state_[q] = kDead;  // a terminated walk can never meet
      return;
    }
    if (a == b) {
      state_[q] = kMet;
      met_row_[q] = row;
      return;
    }
    if (graph_.degree(a) == 0 || graph_.degree(b) == 0) {
      state_[q] = kDead;
    }
  }

  const CsrGraph& graph_;
  Wid base_walker_ = 0;
  std::vector<uint8_t> state_;
  std::vector<uint32_t> met_row_;
  // mu_ protects the boundary-straddling pair halves buffered by any worker.
  Mutex mu_;
  std::vector<Half> boundary_ FM_GUARDED_BY(mu_);
};

}  // namespace

double EstimateSimRank(const CsrGraph& reverse, Vid a, Vid b,
                       const SimRankOptions& options) {
  FM_CHECK(a < reverse.num_vertices() && b < reverse.num_vertices());
  FM_CHECK(options.decay > 0 && options.decay < 1);
  if (a == b) {
    return 1.0;
  }
  double total = 0;
  XorShiftRng rng(DeriveSeed(options.seed, (static_cast<uint64_t>(a) << 32) ^ b));
  for (uint32_t s = 0; s < options.samples; ++s) {
    total += OneSample(reverse, a, b, options, rng);
  }
  return total / options.samples;
}

std::vector<double> EstimateSimRankBatch(
    const CsrGraph& reverse, const std::vector<std::pair<Vid, Vid>>& pairs,
    const SimRankOptions& options) {
  std::vector<double> result(pairs.size());
  ThreadPool::Global().ParallelFor(pairs.size(), [&](uint64_t i, uint32_t) {
    result[i] = EstimateSimRank(reverse, pairs[i].first, pairs[i].second, options);
  });
  return result;
}

std::vector<double> EstimateSimRankBatchWalked(
    const CsrGraph& reverse, const std::vector<std::pair<Vid, Vid>>& pairs,
    const SimRankOptions& options) {
  FM_CHECK(options.decay > 0 && options.decay < 1);
  const Vid n = reverse.num_vertices();
  for (const auto& [a, b] : pairs) {
    FM_CHECK(a < n && b < n);
  }
  std::vector<double> result(pairs.size(), 0.0);
  if (pairs.empty()) {
    return result;
  }

  // One engine run carries every sample of every pair: coupled pair
  // q = rep * |pairs| + p starts walkers 2q (at a) and 2q + 1 (at b). The
  // engine wants a degree-sorted graph, so queries map through the relabeling
  // (degrees — all the meeting logic needs — are preserved).
  DegreeSortedGraph sorted = DegreeSort(reverse);
  const uint64_t num_pairs = pairs.size();
  const uint64_t num_coupled = num_pairs * options.samples;

  WalkSpec spec;
  spec.steps = options.max_steps;
  spec.num_walkers = static_cast<Wid>(2 * num_coupled);
  spec.seed = options.seed;
  spec.keep_paths = false;
  spec.stop_probability = 0.0;
  spec.start_vertices.reserve(2 * num_coupled);
  for (uint32_t rep = 0; rep < options.samples; ++rep) {
    for (const auto& [a, b] : pairs) {
      spec.start_vertices.push_back(sorted.old_to_new[a]);
      spec.start_vertices.push_back(sorted.old_to_new[b]);
    }
  }

  EngineOptions engine_options;
  engine_options.count_visits = false;
  FlashMobEngine engine(sorted.graph, engine_options);
  PairMeetingObserver observer(sorted.graph, num_coupled);
  engine.Run(spec, {&observer});

  // Repeated product, matching OneSample's contribution accumulation exactly.
  std::vector<double> decay_pow(static_cast<size_t>(options.max_steps) + 1);
  decay_pow[0] = 1.0;
  for (uint32_t t = 1; t <= options.max_steps; ++t) {
    decay_pow[t] = decay_pow[t - 1] * options.decay;
  }
  for (uint64_t q = 0; q < num_coupled; ++q) {
    if (observer.Met(q)) {
      result[q % num_pairs] += decay_pow[observer.MetRow(q)];
    }
  }
  for (double& r : result) {
    r /= static_cast<double>(options.samples);
  }
  return result;
}

std::vector<std::vector<double>> ExactSimRank(const CsrGraph& graph, double decay,
                                              uint32_t iterations) {
  Vid n = graph.num_vertices();
  FM_CHECK_MSG(n <= 2048, "ExactSimRank is O(V^2); test oracle only");
  const CsrGraph reverse = Transpose(graph);

  std::vector<std::vector<double>> s(n, std::vector<double>(n, 0.0));
  for (Vid v = 0; v < n; ++v) {
    s[v][v] = 1.0;
  }
  std::vector<std::vector<double>> next = s;
  for (uint32_t it = 0; it < iterations; ++it) {
    for (Vid a = 0; a < n; ++a) {
      auto ia = reverse.neighbors(a);
      for (Vid b = 0; b < n; ++b) {
        if (a == b) {
          next[a][b] = 1.0;
          continue;
        }
        auto ib = reverse.neighbors(b);
        if (ia.empty() || ib.empty()) {
          next[a][b] = 0.0;
          continue;
        }
        double acc = 0;
        for (Vid u : ia) {
          for (Vid v : ib) {
            acc += s[u][v];
          }
        }
        next[a][b] = decay * acc /
                     (static_cast<double>(ia.size()) * static_cast<double>(ib.size()));
      }
    }
    s.swap(next);
  }
  return s;
}

}  // namespace fm
