#include "src/core/engine.h"

#include <algorithm>
#include <optional>

#include "src/core/shuffle.h"
#include "src/core/step_kernel.h"
#include "src/core/walk_observer.h"
#include "src/core/walker_state.h"
#include "src/graph/degree_sort.h"
#include "src/util/env.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/telemetry.h"
#include "src/util/timer.h"
#include "src/util/trace.h"

namespace fm {
namespace {

// Streaming-pass model for placement under instrumentation: every cache line
// of the array is touched exactly once. (The shuffle stage replays its real
// access pattern through Shuffler::SimulateScatter/SimulateGather instead.)
void TouchStreaming(CacheHierarchy* sim, const void* data, size_t bytes) {
  uint64_t addr = reinterpret_cast<uint64_t>(data);
  for (uint64_t off = 0; off < bytes; off += kCacheLineBytes) {
    sim->Access(addr + off, 1);
  }
}

// Folds (after - before) of the sim counters into *acc — the shuffle-stage
// attribution WalkStats::sim_shuffle reports for instrumented runs.
void AccumulateSimDelta(const CacheCounters& before, const CacheCounters& after,
                        CacheCounters* acc) {
  acc->accesses += after.accesses - before.accesses;
  for (int i = 0; i < 4; ++i) {
    acc->hits[i] += after.hits[i] - before.hits[i];
  }
  for (int i = 0; i < 3; ++i) {
    acc->misses[i] += after.misses[i] - before.misses[i];
  }
  acc->dram_lines += after.dram_lines - before.dram_lines;
}

uint64_t SecondsToNs(double s) {
  return s <= 0 ? 0 : static_cast<uint64_t>(s * 1e9);
}

// Cached telemetry instruments for the engine's stage barriers. Looked up once
// per Run (registry lookups take a mutex); published only from the calling
// thread at barrier points, from the same Timer reads and counters that feed
// WalkStats — so fm-metrics-v1 output is bit-identical with telemetry wired.
struct EngineTelemetry {
  telemetry::Counter& walker_steps;
  telemetry::Counter& episodes;
  telemetry::Counter& scatter_ns;
  telemetry::Counter& sample_ns;
  telemetry::Counter& gather_ns;
  telemetry::Gauge& live_walkers;
  telemetry::Histogram& step_ns;

  static EngineTelemetry Make() {
    auto& reg = telemetry::TelemetryRegistry::Get();
    return EngineTelemetry{
        reg.CounterRef("fm.engine.walker_steps_total"),
        reg.CounterRef("fm.engine.episodes_total"),
        reg.CounterRef("fm.engine.scatter_ns_total"),
        reg.CounterRef("fm.engine.sample_ns_total"),
        reg.CounterRef("fm.engine.gather_ns_total"),
        reg.GaugeRef("fm.engine.live_walkers"),
        reg.HistogramRef("fm.engine.step_ns"),
    };
  }
};

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

void FlashMobEngine::EnsurePlan(const WalkSpec& spec, Wid episode_walkers) {
  if (plan_injected_ || plan_.has_value()) {
    return;
  }
  plan_ = PartitionPlan::BuildOptimized(graph_, episode_walkers,
                                        *options_.cost_model, options_.plan);
  (void)spec;
}

WalkResult FlashMobEngine::Run(const WalkSpec& spec) {
  return Run(spec, {});
}

WalkResult FlashMobEngine::Run(const WalkSpec& spec,
                               const std::vector<WalkObserver*>& observers) {
  NullMemHook hook;
  return RunImpl(spec, hook, /*single_thread=*/false, observers);
}

WalkResult FlashMobEngine::RunInstrumented(const WalkSpec& spec,
                                           CacheHierarchy* sim) {
  return RunInstrumented(spec, sim, {});
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
  const Vid n = graph_.num_vertices();
  const Eid m = graph_.num_edges();
  FM_CHECK_MSG(spec.track_identity || !spec.keep_paths,
               "keep_paths requires track_identity (paths are per-walker)");
  FM_CHECK_MSG(!spec.use_edge_weights || graph_.weighted(),
               "use_edge_weights requires a weighted graph");
  FM_CHECK_MSG(!(spec.use_edge_weights &&
                 spec.algorithm != WalkAlgorithm::kDeepWalk),
               "edge weights are only supported for first-order uniform walks");
  for (Vid v : spec.start_vertices) {
    FM_CHECK_MSG(v < n, "start vertex out of range");
  }
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

  // Sink list = caller's observers plus the engine's own visit counter; the
  // counting rides inside the same parallel stages as any external sink.
  std::vector<WalkObserver*> sinks(observers.begin(), observers.end());
  std::optional<ShardedVisitCounter> counter;
  if (options_.count_visits) {
    counter.emplace(n);
    sinks.push_back(&*counter);
  }
  std::vector<WalkObserver*> walker_sinks;
  for (WalkObserver* sink : sinks) {
    if (sink->WantsWalkerChunks()) {
      walker_sinks.push_back(sink);
    }
  }
  FM_CHECK_MSG(walker_sinks.empty() || spec.track_identity,
               "walker-order observers require track_identity");

  // Plan construction is pre-processing (excluded from walk-time accounting, as the
  // paper excludes its 0.04%-0.7% pre-processing overhead from per-step times).
  EnsurePlan(spec, std::min(total_walkers, episode_cap));

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

  EngineTelemetry tm = EngineTelemetry::Make();

  Timer other_timer;
  Shuffler shuffler(&*plan_, pool);
  PresampleBuffers presample(graph_, *plan_);
  StepKernel<Hook> kernel(graph_, spec, *plan_, &presample, alias);
  const uint32_t num_vps = plan_->num_vps();
  result.stats.vp_walker_steps.assign(num_vps, 0);
  const uint64_t num_episodes =
      (total_walkers + episode_cap - 1) / std::max<Wid>(episode_cap, 1);
  result.stats.walker_density =
      (static_cast<double>(total_walkers) /
       static_cast<double>(std::max<uint64_t>(num_episodes, 1))) /
      std::max<double>(1.0, static_cast<double>(m));

  WalkRunInfo run_info;
  run_info.num_vertices = n;
  run_info.steps = spec.steps;
  run_info.total_walkers = total_walkers;
  run_info.num_workers = pool->thread_count();
  run_info.num_vps = num_vps;
  run_info.pool = pool;
  for (WalkObserver* sink : sinks) {
    sink->OnRunBegin(run_info);
  }
  if (options_.progress != nullptr) {
    options_.progress->OnRunBegin(num_episodes, spec.steps, total_walkers);
  }
  result.stats.times.other_s += other_timer.Elapsed();

  Wid remaining = total_walkers;
  uint64_t episode = 0;
  while (remaining > 0) {
    Wid w = std::min(remaining, episode_cap);
    const Wid base_walker = total_walkers - remaining;
    remaining -= w;

    TraceSpan episode_span("engine", "episode");
    episode_span.Arg("episode", episode);
    episode_span.Arg("walkers", w);

    // ---- place: walker storage + initial positions ---------------------------
    other_timer.Start();
    WalkerState state(graph_, spec, w);
    for (WalkObserver* sink : sinks) {
      sink->OnEpisodeBegin(episode, w, base_walker);
    }
    state.Place(pool, episode, base_walker, sinks);
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
      double scatter_s = 0;
      {
        TraceSpan span("engine", "scatter");
        span.Arg("step", step);
        span.Arg("walkers", w);
        Timer shuffle_timer;
        const Vid* aux = state.scatter_aux();
        shuffler.Scatter(state.cur(), aux, w, state.sw(),
                         aux != nullptr ? state.sw_prev() : nullptr);
        // Walker-count conservation: the scatter must account for every walker
        // (live ones in VP chunks, dead ones in the trailing bin) — losing or
        // duplicating one here silently corrupts identity for the whole
        // episode.
        FM_DCHECK_EQ(shuffler.vp_offsets().back(), w);
        FM_DCHECK_EQ(
            static_cast<Wid>(std::count(state.cur(), state.cur() + w,
                                        kInvalidVid)),
            shuffler.dead_count());
        state.AfterScatter(aux);
        if constexpr (Hook::kEnabled) {
          // Replay the real access pattern (count pass, scatter, SW writes)
          // through the hierarchy.
          CacheHierarchy* sim = hook.sim();
          const CacheCounters before = sim->counters();
          shuffler.SimulateScatter(
              state.cur(), aux, w, state.sw(),
              aux != nullptr ? state.sw_prev() : nullptr,
              [sim](const void* p, uint32_t bytes) {
                sim->Access(reinterpret_cast<uint64_t>(p), bytes);
              });
          AccumulateSimDelta(before, sim->counters(),
                             &result.stats.sim_shuffle);
        }
        scatter_s = shuffle_timer.Elapsed();
      }
      result.stats.times.shuffle_s += scatter_s;
      tm.scatter_ns.Add(SecondsToNs(scatter_s));
      const CounterSample scatter_counters = perf_delta();
      result.stats.counters.scatter += scatter_counters;

      // ---- sample: one task per VP --------------------------------------------
      const auto& vp_offsets = shuffler.vp_offsets();
      const Wid live_walkers = vp_offsets[num_vps] - vp_offsets[0];
      double sample_s = 0;
      {
        TraceSpan span("engine", "sample");
        span.Arg("step", step);
        span.Arg("live", live_walkers);
        Timer sample_timer;
        Vid* sw = state.sw();
        Vid* sw_prev = state.sw_prev();
        pool->ParallelFor(num_vps, [&](uint64_t vp_i, uint32_t worker) {
          Wid begin = vp_offsets[vp_i];
          Wid end = vp_offsets[vp_i + 1];
          if (begin == end) {
            return;
          }
          TraceSpan vp_span("engine.vp", "sample_vp");
          vp_span.Arg("step", step);
          vp_span.Arg("vp", vp_i);
          vp_span.Arg("walkers", end - begin);
          const uint64_t chunk_seed = DeriveSeed(
              spec.seed, 0x5A3FULL ^ (episode << 44) ^
                             (static_cast<uint64_t>(step) << 24) ^ vp_i);
          kernel.SampleVp(static_cast<uint32_t>(vp_i), sw + begin,
                          sw_prev != nullptr ? sw_prev + begin : nullptr,
                          end - begin, spec.stop_probability, chunk_seed,
                          hook);
          std::span<const Vid> chunk(sw + begin, end - begin);
          for (WalkObserver* sink : sinks) {
            sink->OnSampleChunk(step, static_cast<uint32_t>(vp_i), chunk,
                                worker);
          }
          result.stats.vp_walker_steps[vp_i] += end - begin;
        });
        sample_s = sample_timer.Elapsed();
      }
      result.stats.total_steps += live_walkers;
      result.stats.times.sample_s += sample_s;
      tm.walker_steps.Add(live_walkers);
      tm.live_walkers.Set(static_cast<int64_t>(live_walkers));
      tm.sample_ns.Add(SecondsToNs(sample_s));
      const CounterSample sample_counters = perf_delta();
      result.stats.counters.sample += sample_counters;

      double gather_s = 0;
      CounterSample gather_counters;
      if (identity_free) {
        // Extension: no reverse shuffle. The sampled SW (and, for node2vec, the
        // kernel-updated predecessor stream) simply becomes the next walker array;
        // identity is lost but every aggregate statistic is preserved.
        other_timer.Start();
        state.AdvanceIdentityFree();
        result.stats.times.other_s += other_timer.Elapsed();
      } else {
        // ---- reverse shuffle: SW -> W_{i+1} ------------------------------------
        Vid* w_next = nullptr;
        {
          TraceSpan span("engine", "gather");
          span.Arg("step", step);
          span.Arg("live", live_walkers);
          Timer gather_timer;
          w_next = state.GatherTarget(step);
          const Status gather_status = shuffler.Gather(
              state.cur(), w, state.sw(), w_next, nullptr, nullptr);
          FM_CHECK_MSG(gather_status.ok(), gather_status.message().c_str());
          // Dead-walker monotonicity: the gather delivers every walker the
          // scatter parked dead, plus any the sample stage just killed — the
          // dead population can only grow (a dead walker never resurrects).
          FM_DCHECK_GE(
              static_cast<Wid>(std::count(w_next, w_next + w, kInvalidVid)),
              shuffler.dead_count());
          if constexpr (Hook::kEnabled) {
            CacheHierarchy* sim = hook.sim();
            const CacheCounters before = sim->counters();
            shuffler.SimulateGather(state.cur(), w, state.sw(), nullptr,
                                    w_next, nullptr,
                                    [sim](const void* p, uint32_t bytes) {
                                      sim->Access(
                                          reinterpret_cast<uint64_t>(p), bytes);
                                    });
            AccumulateSimDelta(before, sim->counters(),
                               &result.stats.sim_shuffle);
          }
          gather_s = gather_timer.Elapsed();
        }
        result.stats.times.shuffle_s += gather_s;
        tm.gather_ns.Add(SecondsToNs(gather_s));
        gather_counters = perf_delta();
        result.stats.counters.gather += gather_counters;

        other_timer.Start();
        if (!walker_sinks.empty()) {
          // Extra walker-order pass for sinks that asked for it.
          pool->ParallelChunks(
              w, [&](uint64_t begin, uint64_t end, uint32_t worker) {
                std::span<const Vid> chunk(w_next + begin, end - begin);
                for (WalkObserver* sink : walker_sinks) {
                  sink->OnWalkerChunk(step, static_cast<Wid>(begin), chunk,
                                      worker);
                }
              });
        }
        state.AdvanceTracked(step);
        result.stats.times.other_s += other_timer.Elapsed();
      }

      if (options_.record_step_stats) {
        StepStageRecord rec;
        rec.episode = episode;
        rec.step = step;
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
        rec.vp_walkers.resize(num_vps);
        for (uint32_t i = 0; i < num_vps; ++i) {
          rec.vp_walkers[i] = vp_offsets[i + 1] - vp_offsets[i];
        }
        rec.scatter_counters = scatter_counters;
        rec.sample_counters = sample_counters;
        rec.gather_counters = gather_counters;
        result.stats.step_records.push_back(std::move(rec));
      }
      tm.step_ns.Observe(SecondsToNs(scatter_s + sample_s + gather_s));
      // Heartbeat: every stage above is barrier-synchronized, so this point is
      // a consistent end-of-step snapshot on the calling thread.
      if (options_.progress != nullptr) {
        options_.progress->OnStep(episode, step, live_walkers, live_walkers);
      }
    }

    other_timer.Start();
    if (spec.keep_paths) {
      result.paths.Append(state.TakePaths());
    }
    for (WalkObserver* sink : sinks) {
      sink->OnEpisodeEnd(episode);
    }
    ++result.stats.episodes;
    tm.episodes.Add(1);
    result.stats.times.other_s += other_timer.Elapsed();
    ++episode;
  }

  other_timer.Start();
  tm.live_walkers.Set(0);  // every walker is retired once the loop exits
  for (WalkObserver* sink : sinks) {
    sink->OnRunEnd();
  }
  if (counter.has_value()) {
    result.visit_counts = counter->TakeCounts();
  }
  if (options_.progress != nullptr) {
    options_.progress->OnRunEnd();
  }
  result.stats.times.other_s += other_timer.Elapsed();
  return result;
}

}  // namespace fm
