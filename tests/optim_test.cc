#include "optim/cpu_adam.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "runtime/compute_pool.h"

namespace ratel {
namespace {

/// Scalar textbook Adam used as the reference implementation.
void ReferenceAdamStep(const AdamConfig& cfg, int64_t t, double grad,
                       double* param, double* m, double* v) {
  *m = cfg.beta1 * *m + (1.0 - cfg.beta1) * grad;
  *v = cfg.beta2 * *v + (1.0 - cfg.beta2) * grad * grad;
  const double mhat = *m / (1.0 - std::pow(cfg.beta1, t));
  const double vhat = *v / (1.0 - std::pow(cfg.beta2, t));
  if (cfg.weight_decay != 0.0) *param -= cfg.lr * cfg.weight_decay * *param;
  *param -= cfg.lr * mhat / (std::sqrt(vhat) + cfg.eps);
}

TEST(CpuAdamTest, MatchesReferenceOverManySteps) {
  AdamConfig cfg;
  cfg.lr = 1e-2;
  CpuAdamKernel kernel(cfg);
  constexpr int64_t kN = 64;
  Rng rng(3);
  std::vector<float> params(kN), m(kN, 0.0f), v(kN, 0.0f);
  std::vector<double> rparams(kN), rm(kN, 0.0), rv(kN, 0.0);
  for (int64_t i = 0; i < kN; ++i) {
    params[i] = static_cast<float>(rng.NextGaussian());
    rparams[i] = params[i];
  }
  for (int64_t t = 1; t <= 50; ++t) {
    std::vector<float> grads(kN);
    for (int64_t i = 0; i < kN; ++i) {
      grads[i] = static_cast<float>(rng.NextGaussian() * 0.1);
    }
    kernel.StepSerialOut(t, kN, grads.data(), params.data(), m.data(),
                         v.data(), params.data(), m.data(), v.data());
    for (int64_t i = 0; i < kN; ++i) {
      ReferenceAdamStep(cfg, t, grads[i], &rparams[i], &rm[i], &rv[i]);
    }
  }
  for (int64_t i = 0; i < kN; ++i) {
    EXPECT_NEAR(params[i], rparams[i], 2e-4) << i;
  }
}

TEST(CpuAdamTest, WeightDecayShrinksParameters) {
  AdamConfig cfg;
  cfg.lr = 1e-2;
  cfg.weight_decay = 0.1;
  CpuAdamKernel kernel(cfg);
  std::vector<float> params{1.0f}, m{0.0f}, v{0.0f};
  std::vector<Fp16> zero_grad{FloatToHalf(0.0f)};
  const float before = params[0];
  kernel.StepChunks(1, 1, zero_grad.data(), CpuAdamKernel::AllChunks(1),
                    CpuAdamKernel::kChunk, params.data(), m.data(), v.data(),
                    params.data(), m.data(), v.data());
  EXPECT_LT(params[0], before);  // decay acts even with zero gradient
}

TEST(CpuAdamTest, DescendsQuadraticBowl) {
  // Minimize f(x) = 0.5 * x^2 -> gradient x. Adam should reach ~0.
  AdamConfig cfg;
  cfg.lr = 0.05;
  CpuAdamKernel kernel(cfg);
  std::vector<float> x{5.0f}, m{0.0f}, v{0.0f};
  for (int64_t t = 1; t <= 400; ++t) {
    std::vector<float> g{x[0]};
    kernel.StepSerialOut(t, 1, g.data(), x.data(), m.data(), v.data(),
                         x.data(), m.data(), v.data());
  }
  EXPECT_NEAR(x[0], 0.0f, 0.05f);
}

TEST(CpuAdamTest, DispatchCostCountsOnlyCoveredElements) {
  // Two chunks, the second one element long: the estimate (16 ops per
  // element) must count kChunk + 1 elements, not 2 * kChunk, so a
  // cutoff between the two keeps the step serial.
  const int64_t n = CpuAdamKernel::kChunk + 1;
  CpuAdamKernel kernel(AdamConfig{});
  std::vector<Fp16> g(n, FloatToHalf(0.5f));
  std::vector<float> p(n, 1.0f), m(n, 0.0f), v(n, 0.0f);
  const int64_t saved_cutoff = SerialCutoff(KernelCost::kAdam);
  SetParallelOversubscribe(true);
  SetComputeThreads(2);
  SetSerialCutoff(KernelCost::kAdam, 16 * n);
  ResetDispatchStats();
  kernel.StepChunks(1, n, g.data(), CpuAdamKernel::AllChunks(n),
                    CpuAdamKernel::kChunk, p.data(), m.data(), v.data(),
                    p.data(), m.data(), v.data());
  const DispatchCounts counts = DispatchStatsFor(KernelCost::kAdam);
  SetSerialCutoff(KernelCost::kAdam, saved_cutoff);
  SetComputeThreads(1);
  SetParallelOversubscribe(false);
  EXPECT_EQ(counts.serial, 1);
  EXPECT_EQ(counts.pooled, 0);
}

TEST(ChunkedCpuAdamTest, RegisterAndStep) {
  ChunkedCpuAdam adam(AdamConfig{});
  ASSERT_TRUE(adam.Register("w", {1.0f, 2.0f, 3.0f}).ok());
  EXPECT_EQ(adam.num_tensors(), 1);
  EXPECT_EQ(adam.StateBytes(), 3 * 12);
  std::vector<Fp16> grads{FloatToHalf(0.1f), FloatToHalf(0.1f),
                          FloatToHalf(0.1f)};
  ASSERT_TRUE(adam.StepTensor("w", grads).ok());
  auto master = adam.MasterParams("w");
  ASSERT_TRUE(master.ok());
  EXPECT_LT((**master)[0], 1.0f);  // moved against positive gradient
}

TEST(ChunkedCpuAdamTest, ErrorsSurfaceAsStatus) {
  ChunkedCpuAdam adam(AdamConfig{});
  ASSERT_TRUE(adam.Register("w", {1.0f}).ok());
  EXPECT_EQ(adam.Register("w", {1.0f}).code(), StatusCode::kAlreadyExists);
  std::vector<Fp16> wrong_size{0, 0};
  EXPECT_EQ(adam.StepTensor("w", wrong_size).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(adam.StepTensor("missing", wrong_size).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(adam.MasterParams("missing").status().code(),
            StatusCode::kNotFound);
}

TEST(ChunkedCpuAdamTest, PerTensorStepCountsIndependent) {
  // Two tensors stepped unequal numbers of times must use their own bias
  // correction, so equal gradients yield equal updates at equal counts.
  ChunkedCpuAdam adam(AdamConfig{});
  ASSERT_TRUE(adam.Register("a", {1.0f}).ok());
  ASSERT_TRUE(adam.Register("b", {1.0f}).ok());
  std::vector<Fp16> g{FloatToHalf(0.5f)};
  ASSERT_TRUE(adam.StepTensor("a", g).ok());
  ASSERT_TRUE(adam.StepTensor("a", g).ok());
  ASSERT_TRUE(adam.StepTensor("b", g).ok());
  ASSERT_TRUE(adam.StepTensor("b", g).ok());
  auto a = adam.MasterParams("a");
  auto b = adam.MasterParams("b");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FLOAT_EQ((**a)[0], (**b)[0]);
}

}  // namespace
}  // namespace ratel
