#include "src/core/engine.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "src/core/shuffle.h"
#include "src/core/step_kernel.h"
#include "src/core/walk_observer.h"
#include "src/core/walker_state.h"
#include "src/graph/degree_sort.h"
#include "src/util/env.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/sync.h"
#include "src/util/timer.h"

namespace fm {
namespace {

// Streaming-pass model for placement under instrumentation: every cache line
// of the array is touched exactly once.
void TouchStreaming(CacheHierarchy* sim, const void* data, size_t bytes) {
  uint64_t addr = reinterpret_cast<uint64_t>(data);
  for (uint64_t off = 0; off < bytes; off += kCacheLineBytes) {
    sim->Access(addr + off, 1);
  }
}

// Runs `stage` and folds the sim counter delta across it into *acc — the
// shuffle-stage attribution WalkStats::sim_shuffle reports for instrumented
// runs. Without a simulator it just runs the stage.
template <typename Hook, typename Stage>
void WithSimDelta(Hook& hook, CacheCounters* acc, Stage&& stage) {
  if constexpr (!Hook::kEnabled) {
    stage();
  } else {
    const CacheCounters before = hook.sim()->counters();
    stage();
    const CacheCounters& after = hook.sim()->counters();
    acc->accesses += after.accesses - before.accesses;
    for (int i = 0; i < 4; ++i) {
      acc->hits[i] += after.hits[i] - before.hits[i];
    }
    for (int i = 0; i < 3; ++i) {
      acc->misses[i] += after.misses[i] - before.misses[i];
    }
    acc->dram_lines += after.dram_lines - before.dram_lines;
  }
}

// One worker's node2vec tallies, on its own cache line: the sample tasks of
// different workers add to their slots concurrently, once per VP chunk.
struct alignas(kCacheLineBytes) Node2VecShard {
  Node2VecCounts counts;
};

// Adds one visit per walker of `vp`'s chunk walkers[0, count) to the shared
// per-vertex counts. A VP chunk holds only live walkers inside the VP's vertex
// range, and VP tasks own disjoint ranges, so concurrent chunks add to
// disjoint elements: no shards, no merge, no atomics, and every increment
// lands in the range the task is already working on.
FM_HOT_PATH void CountVpVisits(const VertexPartition& vp, const Vid* walkers,
                               Wid count, uint64_t* visits) {
  for (Wid i = 0; i < count; ++i) {
    FM_DCHECK(walkers[i] >= vp.begin && walkers[i] < vp.end);
    ++visits[walkers[i]];
  }
}

uint64_t SecondsToNs(double s) {
  return s <= 0 ? 0 : static_cast<uint64_t>(s * 1e9);
}

// A tracked run without keep_paths squeezes its survivors into a dense prefix
// after a step whose scatter found at least this share of the scanned slots
// dead. A squeeze reads the scanned width once; every later step then skips
// the dead slots in its scatter (count and scatter passes) and its gather.
constexpr double kSqueezeDeadShare = 0.5;

bool ShouldSqueeze(Wid dead, Wid width) {
  return static_cast<double>(dead) >=
         kSqueezeDeadShare * static_cast<double>(width);
}

}  // namespace

FlashMobEngine::FlashMobEngine(const CsrGraph& graph, EngineOptions options)
    : graph_(graph), options_(options) {
  FM_CHECK_MSG(graph.num_vertices() > 0, "empty graph");
  FM_CHECK_MSG(IsDegreeSorted(graph),
               "FlashMobEngine requires a degree-sorted graph (use DegreeSort)");
  if (options_.pool == nullptr) {
    options_.pool = &ThreadPool::Global();
  }
  if (options_.plan.threads_sharing_l3 == 0) {
    options_.plan.threads_sharing_l3 = options_.pool->thread_count();
  }
  if (options_.cost_model == nullptr) {
    default_model_ = std::make_unique<AnalyticCostModel>(
        options_.plan.cache, LatencyModel{}, options_.plan.threads_sharing_l3);
    options_.cost_model = default_model_.get();
  }
  if (options_.dram_budget_bytes == 0) {
    options_.dram_budget_bytes =
        static_cast<uint64_t>(EnvInt64("FM_DRAM_MB", 4096)) * 1024 * 1024;
  }
}

FlashMobEngine::~FlashMobEngine() = default;

void FlashMobEngine::SetPlan(PartitionPlan plan) {
  FM_CHECK_MSG(plan.num_vertices() == graph_.num_vertices(),
               "injected plan does not tile this graph");
  plan_ = std::move(plan);
  plan_injected_ = true;
}

const PartitionPlan& FlashMobEngine::plan() const {
  FM_CHECK_MSG(plan_.has_value(), "no plan yet: call Run first or SetPlan");
  return *plan_;
}

Wid FlashMobEngine::EpisodeWalkers(const WalkSpec& spec) const {
  return EpisodeCapacity(spec, options_.dram_budget_bytes,
                         graph_.num_vertices());
}

void FlashMobEngine::EnsurePlan(Wid episode_walkers) {
  if (plan_injected_ || plan_.has_value()) {
    return;
  }
  plan_ = PartitionPlan::BuildOptimized(graph_, episode_walkers,
                                        *options_.cost_model, options_.plan);
}

WalkResult FlashMobEngine::Run(const WalkSpec& spec,
                               const std::vector<WalkObserver*>& observers) {
  NullMemHook hook;
  return RunImpl(spec, hook, /*single_thread=*/false, observers);
}

WalkResult FlashMobEngine::RunInstrumented(
    const WalkSpec& spec, CacheHierarchy* sim,
    const std::vector<WalkObserver*>& observers) {
  CacheSimHook hook(sim);
  return RunImpl(spec, hook, /*single_thread=*/true, observers);
}

template <typename Hook>
WalkResult FlashMobEngine::RunImpl(
    const WalkSpec& spec, Hook& hook, bool single_thread,
    const std::vector<WalkObserver*>& observers) {
  // Origin of StepStageRecord::start_s.
  Timer run_timer;
  const Vid n = graph_.num_vertices();
  const Eid m = graph_.num_edges();
  const Status spec_status = CheckWalkSpec(spec, graph_);
  FM_CHECK_MSG(spec_status.ok(), spec_status.message());
  if (spec.use_edge_weights && alias_tables_ == nullptr) {
    alias_tables_ = std::make_unique<VertexAliasTables>(graph_, *options_.pool);
  }
  const VertexAliasTables* alias =
      spec.use_edge_weights ? alias_tables_.get() : nullptr;
  // Identity-free extension: drop the reverse shuffle; SW becomes the next W.
  const bool identity_free = !spec.track_identity;

  ThreadPool single_pool(1);
  ThreadPool* pool = single_thread ? &single_pool : options_.pool;

  Wid total_walkers = spec.num_walkers != 0 ? spec.num_walkers : n;
  Wid episode_cap = EpisodeWalkers(spec);

  WalkResult result;
  // Visit counts: each sample task counts its chunk before stepping it, and
  // each episode's final positions are counted once at episode end.
  uint64_t* visits = nullptr;
  if (options_.count_visits) {
    result.visit_counts.assign(n, 0);
    visits = result.visit_counts.data();
  }

  // Plan construction is pre-processing (excluded from walk-time accounting, as the
  // paper excludes its 0.04%-0.7% pre-processing overhead from per-step times).
  EnsurePlan(std::min(total_walkers, episode_cap));

  // Per-stage hardware counters: one group per pool thread, read at the stage
  // barriers (stages are barrier-synchronized, so the delta between reads is
  // exactly the stage's work across all threads). Opens lazily per Run so the
  // monitor covers this run's pool, including the single-threaded variant.
  std::optional<StagePerfMonitor> perf;
  if (options_.collect_counters) {
    perf.emplace(pool->WorkerSystemTids());
    result.stats.perf_backend = perf->backend();
  }
  CounterSample perf_cursor;
  if (perf.has_value()) {
    perf_cursor = perf->ReadTotal();
  }
  // Advances the cursor and returns the counter delta since the last call.
  auto perf_delta = [&]() -> CounterSample {
    if (!perf.has_value()) {
      return {};
    }
    CounterSample now = perf->ReadTotal();
    CounterSample delta = now - perf_cursor;
    perf_cursor = now;
    return delta;
  };

  Timer other_timer;
  Shuffler shuffler(&*plan_, pool);
  PresampleBuffers presample(graph_, *plan_);
  StepKernel<Hook> kernel(graph_, spec, *plan_, &presample, alias);
  const uint32_t num_vps = plan_->num_vps();
  result.stats.vp_walker_steps.assign(num_vps, 0);
  // node2vec accept-test tallies, one slot per worker, folded into
  // WalkStats at each sample barrier.
  std::vector<Node2VecShard> node2vec_shards(pool->thread_count());
  const uint64_t num_episodes =
      (total_walkers + episode_cap - 1) / std::max<Wid>(episode_cap, 1);
  result.stats.walker_density =
      (static_cast<double>(total_walkers) /
       static_cast<double>(std::max<uint64_t>(num_episodes, 1))) /
      std::max<double>(1.0, static_cast<double>(m));

  WalkRunInfo run_info;
  run_info.steps = spec.steps;
  run_info.episodes = num_episodes;
  run_info.stats = &result.stats;
  for (WalkObserver* sink : observers) {
    sink->OnRunBegin(run_info);
  }
  result.stats.times.other_s += other_timer.Elapsed();

  Wid remaining = total_walkers;
  uint64_t episode = 0;
  while (remaining > 0) {
    Wid w = std::min(remaining, episode_cap);
    const Wid base_walker = total_walkers - remaining;
    remaining -= w;

    // ---- place: walker storage + initial positions ---------------------------
    other_timer.Start();
    WalkerState state(graph_, spec, w);
    PlaceWalkers(graph_, spec, pool, episode, base_walker, {state.cur(), w},
                 observers);
    if constexpr (Hook::kEnabled) {
      TouchStreaming(hook.sim(), state.cur(), w * sizeof(Vid));
    }
    // Note: pre-sample buffers deliberately persist across episodes — leftover
    // samples are still i.i.d. draws, and discarding them would waste the refill
    // work (they start empty via the constructor).
    result.stats.times.other_s += other_timer.Elapsed();

    for (uint32_t step = 0; step < spec.steps; ++step) {
      // ---- shuffle: W_i -> SW --------------------------------------------------
      if (perf.has_value()) {
        perf_delta();  // drop inter-stage work from the scatter attribution
      }
      const double step_start_s =
          options_.record_step_stats ? run_timer.Elapsed() : 0;
      Timer shuffle_timer;
      // Only cur()[0, width) can hold live walkers: a squeeze or the
      // identity-free dead-bin cut dropped the rest.
      const Wid width = state.width();
      const Vid* aux = state.scatter_aux();
      WithSimDelta(hook, &result.stats.sim_shuffle, [&] {
        shuffler.Scatter(state.cur(), aux, width, state.sw(),
                         aux != nullptr ? state.sw_prev() : nullptr, hook);
      });
      // Walker-count conservation: the scatter must account for every slot
      // it scans (live walkers in VP chunks, dead ones in the trailing bin)
      // — losing or duplicating one here silently corrupts identity for the
      // whole episode.
      FM_DCHECK_EQ(shuffler.vp_offsets().back(), width);
      FM_DCHECK_EQ(
          static_cast<Wid>(std::count(state.cur(), state.cur() + width,
                                      kInvalidVid)),
          shuffler.dead_count());
      state.AfterScatter(aux);
      const double scatter_s = shuffle_timer.Elapsed();
      result.stats.times.shuffle_s += scatter_s;
      const CounterSample scatter_counters = perf_delta();
      result.stats.counters.scatter += scatter_counters;

      // ---- sample: one task per VP --------------------------------------------
      const auto& vp_offsets = shuffler.vp_offsets();
      const Wid live_walkers = vp_offsets[num_vps] - vp_offsets[0];
      Timer sample_timer;
      Vid* sw = state.sw();
      Vid* sw_prev = state.sw_prev();
      pool->ParallelFor(num_vps, [&](uint64_t vp_i, uint32_t worker) {
        Wid begin = vp_offsets[vp_i];
        Wid end = vp_offsets[vp_i + 1];
        if (begin == end) {
          return;
        }
        const uint64_t chunk_seed = DeriveSeed(
            spec.seed, 0x5A3FULL ^ (episode << 44) ^
                           (static_cast<uint64_t>(step) << 24) ^ vp_i);
        if (visits != nullptr) {
          // Row `step`'s positions: the kernel overwrites the chunk in place.
          CountVpVisits(plan_->vp(static_cast<uint32_t>(vp_i)), sw + begin,
                        end - begin, visits);
        }
        kernel.SampleVp(static_cast<uint32_t>(vp_i), sw + begin,
                        sw_prev != nullptr ? sw_prev + begin : nullptr,
                        end - begin, spec.stop_probability, chunk_seed, hook,
                        &node2vec_shards[worker].counts);
        std::span<const Vid> chunk(sw + begin, end - begin);
        for (WalkObserver* sink : observers) {
          sink->OnSampleChunk(chunk);
        }
        result.stats.vp_walker_steps[vp_i] += end - begin;
      });
      const double sample_s = sample_timer.Elapsed();
      for (Node2VecShard& shard : node2vec_shards) {
        result.stats.node2vec += shard.counts;
        shard.counts = {};
      }
      result.stats.total_steps += live_walkers;
      result.stats.slots_scanned += width;
      result.stats.times.sample_s += sample_s;
      const CounterSample sample_counters = perf_delta();
      result.stats.counters.sample += sample_counters;

      double gather_s = 0;
      CounterSample gather_counters;
      if (identity_free) {
        // Extension: no reverse shuffle. The sampled SW (and, for node2vec, the
        // kernel-updated predecessor stream) simply becomes the next walker array;
        // identity is lost but every aggregate statistic is preserved.
        // SW's tail is the dead bin, so the next scan stops at the VP chunks.
        other_timer.Start();
        state.AdvanceIdentityFree(vp_offsets[num_vps]);
        result.stats.times.other_s += other_timer.Elapsed();
      } else {
        // ---- reverse shuffle: SW -> W_{i+1} ------------------------------------
        Timer gather_timer;
        Vid* w_next = state.GatherTarget(step);
        Status gather_status;
        WithSimDelta(hook, &result.stats.sim_shuffle, [&] {
          gather_status = shuffler.Gather(state.cur(), width, state.sw(),
                                          w_next, nullptr, nullptr, hook);
        });
        FM_CHECK_MSG(gather_status.ok(), gather_status.message().c_str());
        // Dead-walker monotonicity: the gather delivers every walker the
        // scatter parked dead, plus any the sample stage just killed — the
        // dead population of the scanned slots can only grow (a dead walker
        // never resurrects).
        FM_DCHECK_GE(
            static_cast<Wid>(std::count(w_next, w_next + width, kInvalidVid)),
            shuffler.dead_count());
        state.AdvanceTracked(step);
        // Squeeze the survivors into a dense prefix. Path rows are full
        // width by contract, so keep_paths runs never do. Timed as shuffle,
        // inside the step's gather.
        if (!spec.keep_paths && ShouldSqueeze(shuffler.dead_count(), width)) {
          WithSimDelta(hook, &result.stats.sim_shuffle,
                       [&] { state.Squeeze(pool, hook); });
          FM_DCHECK_EQ(static_cast<Wid>(std::count(
                           state.cur(), state.cur() + state.width(),
                           kInvalidVid)),
                       Wid{0});
        }
        gather_s = gather_timer.Elapsed();
        result.stats.times.shuffle_s += gather_s;
        gather_counters = perf_delta();
        result.stats.counters.gather += gather_counters;
      }

      if (options_.record_step_stats) {
        StepStageRecord rec;
        rec.episode = episode;
        rec.step = step;
        rec.start_s = step_start_s;
        rec.scatter_s = scatter_s;
        rec.sample_s = sample_s;
        rec.gather_s = gather_s;
        const ShuffleOpStats& sstats = shuffler.last_scatter_stats();
        rec.scatter_pass1_s = sstats.pass1_s;
        rec.scatter_pass2_s = sstats.pass2_s;
        if (!identity_free) {
          rec.gather_pass2_s = shuffler.last_gather_stats().pass2_s;
        }
        rec.live_walkers = live_walkers;
        rec.scanned = width;
        rec.vp_walkers.resize(num_vps);
        for (uint32_t i = 0; i < num_vps; ++i) {
          rec.vp_walkers[i] = vp_offsets[i + 1] - vp_offsets[i];
        }
        rec.scatter_counters = scatter_counters;
        rec.sample_counters = sample_counters;
        rec.gather_counters = gather_counters;
        result.stats.step_records.push_back(std::move(rec));
      }
      result.stats.step_ns.Observe(
          SecondsToNs(scatter_s + sample_s + gather_s));
      // Every stage above is barrier-synchronized, so this point is a
      // consistent end-of-step view of the tally, on the calling thread.
      for (WalkObserver* sink : observers) {
        sink->OnStepEnd(episode, step, live_walkers);
      }
    }

    other_timer.Start();
    if (visits != nullptr) {
      // The final row (the placement row when steps == 0) has no sample task
      // to count it: scatter it into VP order once more and count each VP
      // chunk the same way, skipping the dead bin. One scatter per episode;
      // unhooked, so instrumented runs simulate only the walk's shuffles.
      // Must precede TakePaths: in keep_paths mode cur() is the last row.
      shuffler.Scatter(state.cur(), nullptr, state.width(), state.sw(),
                       nullptr);
      const auto& vp_offsets = shuffler.vp_offsets();
      const Vid* sw = state.sw();
      pool->ParallelFor(num_vps, [&](uint64_t vp_i, uint32_t) {
        CountVpVisits(plan_->vp(static_cast<uint32_t>(vp_i)),
                      sw + vp_offsets[vp_i],
                      vp_offsets[vp_i + 1] - vp_offsets[vp_i], visits);
      });
    }
    if (spec.keep_paths) {
      result.paths.Append(state.TakePaths());
    }
    ++result.stats.episodes;
    result.stats.times.other_s += other_timer.Elapsed();
    ++episode;
  }

  other_timer.Start();
  for (WalkObserver* sink : observers) {
    sink->OnRunEnd();
  }
  result.stats.times.other_s += other_timer.Elapsed();
  return result;
}

}  // namespace fm
