// Microbenchmark: out-of-core CPU Adam kernel throughput (params/s).
// The paper's calibration assumes ~1e9 params/s on the dual-Xeon host;
// this measures what the kernel actually sustains here.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/fp16.h"
#include "common/rng.h"
#include "optim/cpu_adam.h"
#include "runtime/compute_pool.h"

namespace {

using ratel::AdamConfig;
using ratel::CpuAdamKernel;
using ratel::Fp16;
using ratel::FloatToHalf;
using ratel::Rng;
using ratel::SetComputeThreads;

// Two-argument variants sweep {n, compute threads}: the kernel fans its
// fixed 4096-element chunk grid out on the shared ComputePool.
void BM_AdamStepChunks(benchmark::State& state) {
  const int64_t n = state.range(0);
  SetComputeThreads(static_cast<int>(state.range(1)));
  CpuAdamKernel kernel(AdamConfig{});
  Rng rng(2);
  std::vector<Fp16> grads(n);
  std::vector<float> params(n), m(n, 0.0f), v(n, 0.0f);
  for (int64_t i = 0; i < n; ++i) {
    grads[i] = FloatToHalf(static_cast<float>(rng.NextGaussian()));
    params[i] = static_cast<float>(rng.NextGaussian());
  }
  const std::vector<int64_t> chunks = CpuAdamKernel::AllChunks(n);
  int64_t step = 0;
  for (auto _ : state) {
    kernel.StepChunks(++step, n, grads.data(), chunks, CpuAdamKernel::kChunk,
                      params.data(), m.data(), v.data(), params.data(),
                      m.data(), v.data());
    benchmark::DoNotOptimize(params.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  SetComputeThreads(1);
}
BENCHMARK(BM_AdamStepChunks)
    ->Args({1 << 12, 1})
    ->Args({1 << 16, 1})
    ->Args({1 << 20, 1})
    ->Args({1 << 20, 2})
    ->Args({1 << 20, 4});

void BM_Fp16Conversion(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(3);
  std::vector<float> in(n);
  std::vector<Fp16> out(n);
  for (auto& x : in) x = static_cast<float>(rng.NextGaussian());
  for (auto _ : state) {
    for (int64_t i = 0; i < n; ++i) out[i] = FloatToHalf(in[i]);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Fp16Conversion)->Arg(1 << 16);

}  // namespace

BENCHMARK_MAIN();
