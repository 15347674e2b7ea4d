// SIMD compute-layer suite (ctest labels: determinism simd).
//
// Pins the src/simd contract from both sides:
//  - the AVX2 backend matches the scalar reference bitwise for every
//    kernel documented as bitwise (elementwise, fp16 conversion,
//    softmax/ce rows, the fused Adam steps), and within tight tolerance
//    for the reduction kernels that legitimately re-associate (GEMM,
//    layernorm, GeLU's polynomial tanh);
//  - for a fixed RATEL_SIMD mode, whole-model training stays bitwise
//    identical across 1/2/4 compute threads (run oversubscribed so the
//    sweep exercises genuine interleaving even on a 1-core host);
//  - the adaptive dispatch cutoffs flip between inline and pooled
//    execution exactly at the documented boundary, without affecting
//    results.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "autograd/transformer.h"
#include "common/fp16.h"
#include "common/rng.h"
#include "optim/cpu_adam.h"
#include "runtime/compute_pool.h"
#include "runtime/dataset.h"
#include "simd/simd.h"

namespace ratel {
namespace {

std::vector<float> RandomVec(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (int64_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(rng.NextGaussian()) * 0.5f;
  }
  return v;
}

std::vector<Fp16> RandomHalves(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Fp16> v(n);
  for (int64_t i = 0; i < n; ++i) {
    v[i] = FloatToHalf(static_cast<float>(rng.NextGaussian()));
  }
  return v;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void ExpectClose(const std::vector<float>& ref, const std::vector<float>& got,
                 float rtol, float atol, const char* what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (size_t i = 0; i < ref.size(); ++i) {
    const float tol = atol + rtol * std::abs(ref[i]);
    EXPECT_NEAR(ref[i], got[i], tol) << what << " element " << i;
  }
}

// Saves and restores every piece of process-global kernel state the
// tests poke, so one test cannot leak its configuration into the next.
class SimdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mode_ = simd::ActiveMode();
    threads_ = ComputeThreads();
    oversubscribe_ = ParallelOversubscribe();
    for (int c = 0; c < kNumKernelCosts; ++c) {
      cutoffs_[c] = SerialCutoff(static_cast<KernelCost>(c));
    }
  }
  void TearDown() override {
    ASSERT_TRUE(simd::SetMode(mode_));
    SetComputeThreads(threads_);
    SetParallelOversubscribe(oversubscribe_);
    for (int c = 0; c < kNumKernelCosts; ++c) {
      SetSerialCutoff(static_cast<KernelCost>(c), cutoffs_[c]);
    }
    ResetDispatchStats();
  }

  simd::Mode mode_ = simd::Mode::kScalar;
  int threads_ = 1;
  bool oversubscribe_ = false;
  int64_t cutoffs_[kNumKernelCosts] = {};
};

// ---------------------------------------------------------------------
// Backend selection.

TEST_F(SimdTest, ScalarModeAlwaysSelectable) {
  EXPECT_TRUE(simd::SetMode(simd::Mode::kScalar));
  EXPECT_EQ(simd::ActiveMode(), simd::Mode::kScalar);
  EXPECT_STREQ(simd::Kernels().name, "scalar");
}

TEST_F(SimdTest, Avx2ModeSelectableIffHostSupportsIt) {
  EXPECT_EQ(simd::SetMode(simd::Mode::kAvx2), simd::HostHasAvx2());
  if (simd::HostHasAvx2()) {
    EXPECT_EQ(simd::ActiveMode(), simd::Mode::kAvx2);
    EXPECT_STREQ(simd::Kernels().name, "avx2");
  }
}

// ---------------------------------------------------------------------
// AVX2 vs scalar, kernel by kernel. Shapes are deliberately awkward
// (odd rows/cols) so the 6/4/1-row GEMM blocks and the 16/8/partial
// column tails all execute.

TEST_F(SimdTest, GemmNnMatchesScalarWithinTolerance) {
  if (!simd::HostHasAvx2()) GTEST_SKIP() << "host lacks AVX2";
  const int64_t m = 37, k = 53, n = 41;
  const std::vector<float> a = RandomVec(m * k, 1);
  const std::vector<float> b = RandomVec(k * n, 2);
  std::vector<float> ref = RandomVec(m * n, 3);  // accumulate semantics
  std::vector<float> got = ref;
  simd::KernelsFor(simd::Mode::kScalar)
      .gemm_nn_rows(a.data(), b.data(), ref.data(), 0, m, k, n);
  simd::KernelsFor(simd::Mode::kAvx2)
      .gemm_nn_rows(a.data(), b.data(), got.data(), 0, m, k, n);
  ExpectClose(ref, got, 1e-4f, 1e-4f, "gemm_nn");
}

TEST_F(SimdTest, GemmTnMatchesScalarWithinTolerance) {
  if (!simd::HostHasAvx2()) GTEST_SKIP() << "host lacks AVX2";
  const int64_t m = 29, k = 37, n = 43;
  const std::vector<float> a = RandomVec(m * k, 4);
  const std::vector<float> b = RandomVec(m * n, 5);
  std::vector<float> ref = RandomVec(k * n, 6);
  std::vector<float> got = ref;
  simd::KernelsFor(simd::Mode::kScalar)
      .gemm_tn_rows(a.data(), b.data(), ref.data(), 0, k, m, k, n);
  simd::KernelsFor(simd::Mode::kAvx2)
      .gemm_tn_rows(a.data(), b.data(), got.data(), 0, k, m, k, n);
  ExpectClose(ref, got, 1e-4f, 1e-4f, "gemm_tn");
}

TEST_F(SimdTest, ElementwiseKernelsAreBitwiseAcrossBackends) {
  if (!simd::HostHasAvx2()) GTEST_SKIP() << "host lacks AVX2";
  const int64_t n = 1003;  // odd: exercises the partial-vector tail
  const std::vector<float> a = RandomVec(n, 7);
  const std::vector<float> b = RandomVec(n, 8);
  const auto& sc = simd::KernelsFor(simd::Mode::kScalar);
  const auto& av = simd::KernelsFor(simd::Mode::kAvx2);
  std::vector<float> r(n), g(n);

  sc.add(a.data(), b.data(), r.data(), n);
  av.add(a.data(), b.data(), g.data(), n);
  EXPECT_TRUE(BitwiseEqual(r, g)) << "add";

  r = a;
  g = a;
  sc.accumulate(r.data(), b.data(), n);
  av.accumulate(g.data(), b.data(), n);
  EXPECT_TRUE(BitwiseEqual(r, g)) << "accumulate";

  sc.scale(a.data(), 1.37f, r.data(), n);
  av.scale(a.data(), 1.37f, g.data(), n);
  EXPECT_TRUE(BitwiseEqual(r, g)) << "scale";

  sc.mul(a.data(), b.data(), r.data(), n);
  av.mul(a.data(), b.data(), g.data(), n);
  EXPECT_TRUE(BitwiseEqual(r, g)) << "mul";

  sc.diff_scale(a.data(), b.data(), 0.753f, r.data(), n);
  av.diff_scale(a.data(), b.data(), 0.753f, g.data(), n);
  EXPECT_TRUE(BitwiseEqual(r, g)) << "diff_scale";
}

TEST_F(SimdTest, GeluMatchesScalarWithinTolerance) {
  if (!simd::HostHasAvx2()) GTEST_SKIP() << "host lacks AVX2";
  const int64_t n = 517;
  std::vector<float> x = RandomVec(n, 9);
  for (int64_t i = 0; i < n; ++i) x[i] *= 6.0f;  // cover the saturated tails
  const std::vector<float> g = RandomVec(n, 10);
  const auto& sc = simd::KernelsFor(simd::Mode::kScalar);
  const auto& av = simd::KernelsFor(simd::Mode::kAvx2);
  std::vector<float> r(n), o(n);
  sc.gelu_fwd(x.data(), r.data(), n);
  av.gelu_fwd(x.data(), o.data(), n);
  ExpectClose(r, o, 1e-4f, 1e-5f, "gelu_fwd");
  sc.gelu_bwd(x.data(), g.data(), r.data(), n);
  av.gelu_bwd(x.data(), g.data(), o.data(), n);
  ExpectClose(r, o, 1e-4f, 1e-5f, "gelu_bwd");
}

TEST_F(SimdTest, LayerNormRowMatchesScalarWithinTolerance) {
  if (!simd::HostHasAvx2()) GTEST_SKIP() << "host lacks AVX2";
  const int64_t n = 67;
  const std::vector<float> x = RandomVec(n, 11);
  const std::vector<float> gamma = RandomVec(n, 12);
  const std::vector<float> beta = RandomVec(n, 13);
  const std::vector<float> g = RandomVec(n, 14);
  const auto& sc = simd::KernelsFor(simd::Mode::kScalar);
  const auto& av = simd::KernelsFor(simd::Mode::kAvx2);

  std::vector<float> out_r(n), out_a(n);
  float mean_r = 0, inv_r = 0, mean_a = 0, inv_a = 0;
  sc.layernorm_row_fwd(x.data(), gamma.data(), beta.data(), n, 1e-5f,
                       out_r.data(), &mean_r, &inv_r);
  av.layernorm_row_fwd(x.data(), gamma.data(), beta.data(), n, 1e-5f,
                       out_a.data(), &mean_a, &inv_a);
  EXPECT_NEAR(mean_r, mean_a, 1e-6f + 1e-5f * std::abs(mean_r));
  EXPECT_NEAR(inv_r, inv_a, 1e-6f + 1e-5f * std::abs(inv_r));
  ExpectClose(out_r, out_a, 1e-4f, 1e-5f, "layernorm_fwd");

  std::vector<float> dg_r(n, 0.1f), db_r(n, 0.2f), dx_r(n);
  std::vector<float> dg_a(n, 0.1f), db_a(n, 0.2f), dx_a(n);
  sc.layernorm_row_bwd(x.data(), g.data(), gamma.data(), mean_r, inv_r, n,
                       dg_r.data(), db_r.data(), dx_r.data());
  av.layernorm_row_bwd(x.data(), g.data(), gamma.data(), mean_r, inv_r, n,
                       dg_a.data(), db_a.data(), dx_a.data());
  ExpectClose(dg_r, dg_a, 1e-4f, 1e-5f, "layernorm_bwd dgamma");
  ExpectClose(db_r, db_a, 1e-4f, 1e-5f, "layernorm_bwd dbeta");
  ExpectClose(dx_r, dx_a, 1e-4f, 1e-5f, "layernorm_bwd dx");
}

TEST_F(SimdTest, SoftmaxAndCeGradRowsAreBitwiseAcrossBackends) {
  if (!simd::HostHasAvx2()) GTEST_SKIP() << "host lacks AVX2";
  const int64_t n = 133;
  std::vector<float> x = RandomVec(n, 15);
  for (int64_t i = 0; i < n; ++i) x[i] *= 4.0f;
  const auto& sc = simd::KernelsFor(simd::Mode::kScalar);
  const auto& av = simd::KernelsFor(simd::Mode::kAvx2);
  std::vector<float> p_r(n), p_a(n);
  sc.softmax_row(x.data(), p_r.data(), n);
  av.softmax_row(x.data(), p_a.data(), n);
  EXPECT_TRUE(BitwiseEqual(p_r, p_a)) << "softmax_row";

  std::vector<float> g_r(n), g_a(n);
  sc.ce_grad_row(p_r.data(), /*target=*/17, 0.25f, g_r.data(), n);
  av.ce_grad_row(p_r.data(), /*target=*/17, 0.25f, g_a.data(), n);
  EXPECT_TRUE(BitwiseEqual(g_r, g_a)) << "ce_grad_row";
}

TEST_F(SimdTest, Fp16ConversionsAreBitwiseAcrossBackends) {
  if (!simd::HostHasAvx2()) GTEST_SKIP() << "host lacks AVX2";
  const int64_t n = 2051;
  const std::vector<Fp16> h = RandomHalves(n, 16);
  const std::vector<float> f = RandomVec(n, 17);
  const auto& sc = simd::KernelsFor(simd::Mode::kScalar);
  const auto& av = simd::KernelsFor(simd::Mode::kAvx2);

  std::vector<float> wr(n), wa(n);
  sc.halves_to_floats(h.data(), wr.data(), n, 2.5f);
  av.halves_to_floats(h.data(), wa.data(), n, 2.5f);
  EXPECT_TRUE(BitwiseEqual(wr, wa)) << "halves_to_floats";

  std::vector<Fp16> nr(n), na(n);
  sc.floats_to_halves(f.data(), nr.data(), n);
  av.floats_to_halves(f.data(), na.data(), n);
  EXPECT_EQ(0, std::memcmp(nr.data(), na.data(), n * sizeof(Fp16)))
      << "floats_to_halves";
}

// StepChunks over `steps` steps must be bitwise the widen-then-
// StepSerialOut reference in each of `modes`, with the grid applied as
// two disjoint calls per step (even chunks, then odd ones).
void ExpectChunkStepsMatchSerialReference(const AdamConfig& cfg, int64_t n,
                                          int steps, float unscale,
                                          const std::vector<simd::Mode>& modes) {
  CpuAdamKernel kernel(cfg);
  const std::vector<float> p0 = RandomVec(n, 21);
  const std::vector<Fp16> g16 = RandomHalves(n, 22);
  std::vector<float> gw(n);
  for (int64_t i = 0; i < n; ++i) gw[i] = HalfToFloat(g16[i]) * unscale;
  std::vector<float> p_ref = p0, m_ref(n, 0.0f), v_ref(n, 0.0f);
  for (int step = 1; step <= steps; ++step) {
    kernel.StepSerialOut(step, n, gw.data(), p_ref.data(), m_ref.data(),
                         v_ref.data(), p_ref.data(), m_ref.data(),
                         v_ref.data());
  }
  std::vector<int64_t> evens, odds;
  for (int64_t c : CpuAdamKernel::AllChunks(n)) {
    (c % 2 == 0 ? evens : odds).push_back(c);
  }
  for (simd::Mode mode : modes) {
    ASSERT_TRUE(simd::SetMode(mode));
    std::vector<float> p = p0, m(n, 0.0f), v(n, 0.0f);
    for (int step = 1; step <= steps; ++step) {
      for (const auto& chunks : {evens, odds}) {
        kernel.StepChunks(step, n, g16.data(), chunks, CpuAdamKernel::kChunk,
                          p.data(), m.data(), v.data(), p.data(), m.data(),
                          v.data(), unscale);
      }
    }
    EXPECT_TRUE(BitwiseEqual(p_ref, p)) << simd::ModeName(mode);
    EXPECT_TRUE(BitwiseEqual(m_ref, m)) << simd::ModeName(mode);
    EXPECT_TRUE(BitwiseEqual(v_ref, v)) << simd::ModeName(mode);
  }
}

TEST_F(SimdTest, AdamStepsAreBitwiseAcrossBackendsAndVsSerialReference) {
  if (!simd::HostHasAvx2()) GTEST_SKIP() << "host lacks AVX2";
  AdamConfig cfg;
  cfg.lr = 1e-3;
  cfg.weight_decay = 0.01;
  ExpectChunkStepsMatchSerialReference(
      cfg, /*n=*/1234, /*steps=*/3, /*unscale=*/0.5f,
      {simd::Mode::kScalar, simd::Mode::kAvx2});
}

// Satellite regression: StepChunks' fused (vectorized) half->float
// conversion must reproduce the widen-then-serial reference bitwise,
// for any split of the chunk grid across calls.
TEST_F(SimdTest, Fp16ChunkStepsMatchSerialReferenceBitwise) {
  AdamConfig cfg;
  cfg.lr = 2e-3;
  cfg.weight_decay = 0.02;
  std::vector<simd::Mode> modes = {simd::Mode::kScalar};
  if (simd::HostHasAvx2()) modes.push_back(simd::Mode::kAvx2);
  ExpectChunkStepsMatchSerialReference(cfg, 3 * CpuAdamKernel::kChunk + 123,
                                       /*steps=*/1, /*unscale=*/1.75f, modes);
}

// ---------------------------------------------------------------------
// Thread-count determinism per mode: whole TinyGpt training steps, run
// oversubscribed so 2/4 threads genuinely interleave on any host.

struct TrainRun {
  std::vector<float> losses;
  std::vector<std::vector<float>> params;
};

TrainRun TrainTinyGpt(int threads, int steps) {
  SetComputeThreads(threads);
  ag::TinyGptConfig cfg;
  cfg.vocab_size = 48;
  cfg.seq_len = 12;
  cfg.hidden_dim = 32;
  cfg.num_heads = 4;
  cfg.num_layers = 2;
  ag::TinyGpt model(cfg, /*seed=*/99);

  AdamConfig acfg;
  acfg.lr = 1e-3;
  acfg.weight_decay = 0.01;
  CpuAdamKernel kernel(acfg);
  std::vector<std::vector<float>> exp_avg, exp_avg_sq;
  for (auto& [name, var] : model.parameters()) {
    exp_avg.emplace_back(var.value().size(), 0.0f);
    exp_avg_sq.emplace_back(var.value().size(), 0.0f);
  }
  SyntheticDataset dataset(SyntheticTask::kAffineMap, cfg.vocab_size,
                           cfg.seq_len, /*seed=*/7);
  TrainRun run;
  for (int step = 1; step <= steps; ++step) {
    const TokenBatch b = dataset.NextBatch(2);
    model.ZeroGrads();
    ag::Variable loss = model.Loss(b.ids, b.targets, 2);
    loss.Backward();
    run.losses.push_back(loss.value()[0]);
    size_t p = 0;
    for (auto& [name, var] : model.parameters()) {
      const std::vector<float>& grad = var.grad();
      float* value = var.mutable_value().data();
      kernel.StepSerialOut(step, static_cast<int64_t>(grad.size()),
                           grad.data(), value, exp_avg[p].data(),
                           exp_avg_sq[p].data(), value, exp_avg[p].data(),
                           exp_avg_sq[p].data());
      ++p;
    }
  }
  for (auto& [name, var] : model.parameters()) {
    run.params.push_back(var.value());
  }
  return run;
}

TEST_F(SimdTest, TinyGptTrajectoryIsBitwiseAcrossThreadCountsPerMode) {
  SetParallelOversubscribe(true);
  std::vector<simd::Mode> modes = {simd::Mode::kScalar};
  if (simd::HostHasAvx2()) modes.push_back(simd::Mode::kAvx2);
  for (simd::Mode mode : modes) {
    ASSERT_TRUE(simd::SetMode(mode));
    const TrainRun t1 = TrainTinyGpt(/*threads=*/1, /*steps=*/3);
    const TrainRun t2 = TrainTinyGpt(/*threads=*/2, /*steps=*/3);
    const TrainRun t4 = TrainTinyGpt(/*threads=*/4, /*steps=*/3);
    for (const TrainRun* other : {&t2, &t4}) {
      ASSERT_EQ(t1.losses.size(), other->losses.size());
      for (size_t i = 0; i < t1.losses.size(); ++i) {
        EXPECT_EQ(t1.losses[i], other->losses[i])
            << simd::ModeName(mode) << " step " << i + 1;
      }
      ASSERT_EQ(t1.params.size(), other->params.size());
      for (size_t p = 0; p < t1.params.size(); ++p) {
        EXPECT_TRUE(BitwiseEqual(t1.params[p], other->params[p]))
            << simd::ModeName(mode) << " parameter tensor " << p;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Adaptive dispatch cutoffs.

TEST_F(SimdTest, ParallelWidthClampsToCoresUnlessOversubscribed) {
  SetComputeThreads(4);
  SetParallelOversubscribe(false);
  EXPECT_LE(ParallelWidth(), ComputeThreads());
  SetParallelOversubscribe(true);
  EXPECT_EQ(ParallelWidth(), ComputeThreads());
}

TEST_F(SimdTest, DispatchFlipsAtTheCutoffBoundary) {
  SetComputeThreads(2);
  SetParallelOversubscribe(true);  // width 2 even on a 1-core host
  SetSerialCutoff(KernelCost::kElementwise, 1000);
  auto run = [](int64_t est_ops) {
    std::vector<float> out(64, 0.0f);
    ComputeParallelFor(KernelCost::kElementwise, est_ops, 0, 64, 8,
                       [&](int64_t b, int64_t e) {
                         for (int64_t i = b; i < e; ++i) out[i] = float(i);
                       });
    for (int64_t i = 0; i < 64; ++i) ASSERT_EQ(out[i], float(i));
  };

  ResetDispatchStats();
  run(/*est_ops=*/999);   // below
  run(/*est_ops=*/1000);  // at the boundary: still serial (<=)
  DispatchCounts c = DispatchStatsFor(KernelCost::kElementwise);
  EXPECT_EQ(c.serial, 2);
  EXPECT_EQ(c.pooled, 0);

  ResetDispatchStats();
  run(/*est_ops=*/1001);  // above: pooled
  c = DispatchStatsFor(KernelCost::kElementwise);
  EXPECT_EQ(c.serial, 0);
  EXPECT_EQ(c.pooled, 1);
}

TEST_F(SimdTest, NonPositiveCutoffDisablesSerialBySize) {
  SetComputeThreads(2);
  SetParallelOversubscribe(true);
  SetSerialCutoff(KernelCost::kGemm, 0);
  ResetDispatchStats();
  ComputeParallelFor(KernelCost::kGemm, /*est_ops=*/1, 0, 64, 8,
                     [](int64_t, int64_t) {});
  DispatchCounts c = DispatchStatsFor(KernelCost::kGemm);
  EXPECT_EQ(c.serial, 0);
  EXPECT_EQ(c.pooled, 1);
}

TEST_F(SimdTest, SingleChunkRangeRunsInlineRegardlessOfEstimate) {
  SetComputeThreads(2);
  SetParallelOversubscribe(true);
  ResetDispatchStats();
  ComputeParallelFor(KernelCost::kGemm, /*est_ops=*/int64_t{1} << 30, 0, 8,
                     /*grain=*/8, [](int64_t, int64_t) {});
  DispatchCounts c = DispatchStatsFor(KernelCost::kGemm);
  EXPECT_EQ(c.serial, 1);
  EXPECT_EQ(c.pooled, 0);
}

TEST_F(SimdTest, WidthOneCountsAsSerialEvenAboveCutoff) {
  SetComputeThreads(1);
  SetParallelOversubscribe(false);
  ResetDispatchStats();
  ComputeParallelFor(KernelCost::kAdam, /*est_ops=*/int64_t{1} << 30, 0, 1024,
                     /*grain=*/8, [](int64_t, int64_t) {});
  DispatchCounts c = DispatchStatsFor(KernelCost::kAdam);
  EXPECT_EQ(c.serial, 1);
  EXPECT_EQ(c.pooled, 0);
}

}  // namespace
}  // namespace ratel
