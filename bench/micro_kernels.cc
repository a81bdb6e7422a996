// Google-benchmark microbenchmarks for the core kernels: RNGs (the §5.2 xorshift*
// vs Mersenne Twister ablation), shuffle passes, and the PS/DS sample kernels
// on an L2-sized VP.
#include <benchmark/benchmark.h>

#include <vector>

#include "src/core/presample.h"
#include "src/core/sample_stage.h"
#include "src/core/shuffle.h"
#include "src/gen/uniform_degree.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace fm {
namespace {

void BM_XorShiftRng(benchmark::State& state) {
  XorShiftRng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
}
BENCHMARK(BM_XorShiftRng);

void BM_MersenneRng(benchmark::State& state) {
  MersenneRng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
}
BENCHMARK(BM_MersenneRng);

void BM_SampleKernel(benchmark::State& state) {
  SamplePolicy policy = state.range(0) == 0 ? SamplePolicy::kPS : SamplePolicy::kDS;
  Vid vertices = 1 << 13;  // ~L2-sized working sets
  Degree degree = 16;
  CsrGraph g = GenerateUniformDegreeGraph(vertices, degree, 1, vertices);
  PartitionPlan plan = PartitionPlan::BuildUniform(g, 1, policy);
  PresampleBuffers buffers(g, plan);
  Wid walkers = vertices * degree;
  std::vector<Vid> sw(walkers);
  XorShiftRng init(1);
  for (auto& w : sw) {
    w = static_cast<Vid>(init.NextBounded(vertices));
  }
  NullMemHook hook;
  uint64_t chunk_seed = 2;
  for (auto _ : state) {
    SampleVpFirstOrder(g, 0, plan.vp(0), &buffers, sw.data(), walkers, 0.0,
                       nullptr, chunk_seed++, hook);
  }
  state.SetItemsProcessed(state.iterations() * walkers);
}
BENCHMARK(BM_SampleKernel)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// range(0) = partitions.
void BM_ShuffleRoundTrip(benchmark::State& state) {
  Vid vertices = 1 << 16;
  CsrGraph g = GenerateUniformDegreeGraph(vertices, 4, 1);
  PartitionPlan plan =
      PartitionPlan::BuildUniform(g, static_cast<uint32_t>(state.range(0)),
                                  SamplePolicy::kDS);
  ThreadPool pool(0);
  Wid walkers = 1 << 20;
  Shuffler shuffler(&plan, &pool);
  std::vector<Vid> w(walkers), sw(walkers), w_next(walkers);
  XorShiftRng rng(3);
  for (auto& x : w) {
    x = static_cast<Vid>(rng.NextBounded(vertices));
  }
  for (auto _ : state) {
    shuffler.Scatter(w.data(), nullptr, walkers, sw.data(), nullptr);
    if (!shuffler
             .Gather(w.data(), walkers, sw.data(), w_next.data(), nullptr,
                     nullptr)
             .ok()) {
      state.SkipWithError("gather failed");
    }
  }
  state.SetItemsProcessed(state.iterations() * walkers);
}
BENCHMARK(BM_ShuffleRoundTrip)->Arg(64)->Arg(2048)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace fm

BENCHMARK_MAIN();
