// Bitwise-determinism suite (ctest label: determinism).
//
// The parallel compute layer promises more than "close": because every
// kernel partitions work into chunks whose boundaries depend only on the
// problem shape, and keeps a fixed accumulation order inside each chunk,
// results must be *bitwise identical* for every RATEL_THREADS value.
// These tests pin that contract end to end — single ops, the CPU Adam
// chunk grid, and whole TinyGpt training steps.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "autograd/transformer.h"
#include "common/rng.h"
#include "optim/cpu_adam.h"
#include "runtime/compute_pool.h"
#include "runtime/dataset.h"
#include "runtime/ratel_trainer.h"

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

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Runs `steps` real TinyGpt train steps (forward, backward, in-memory
// Adam on every parameter) at the given compute thread count and
// returns the per-step loss bits plus the final parameter bytes.
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
  ag::TinyGpt model(cfg, /*seed=*/77);

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
  const int64_t batch = 2;
  TrainRun run;
  for (int step = 1; step <= steps; ++step) {
    const TokenBatch b = dataset.NextBatch(batch);
    model.ZeroGrads();
    ag::Variable loss = model.Loss(b.ids, b.targets, batch);
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
  for (auto& [name, var] : model.parameters()) run.params.push_back(var.value());
  SetComputeThreads(1);
  return run;
}

TEST(DeterminismTest, TinyGptTrainingIsBitwiseIdenticalAcrossThreadCounts) {
  const TrainRun serial = TrainTinyGpt(/*threads=*/1, /*steps=*/3);
  const TrainRun parallel = TrainTinyGpt(/*threads=*/4, /*steps=*/3);
  ASSERT_EQ(serial.losses.size(), parallel.losses.size());
  for (size_t i = 0; i < serial.losses.size(); ++i) {
    // EXPECT_EQ on float is exact equality — bitwise for non-NaN values.
    EXPECT_EQ(serial.losses[i], parallel.losses[i]) << "step " << i + 1;
  }
  ASSERT_EQ(serial.params.size(), parallel.params.size());
  for (size_t p = 0; p < serial.params.size(); ++p) {
    EXPECT_TRUE(BitwiseEqual(serial.params[p], parallel.params[p]))
        << "parameter tensor " << p << " diverged";
  }
}

TEST(DeterminismTest, ForwardLogitsAreBitwiseIdenticalAcrossThreadCounts) {
  ag::TinyGptConfig cfg;
  cfg.vocab_size = 40;
  cfg.seq_len = 16;
  cfg.hidden_dim = 32;
  cfg.num_heads = 4;
  cfg.num_layers = 2;
  SyntheticDataset dataset(SyntheticTask::kAffineMap, cfg.vocab_size,
                           cfg.seq_len, /*seed=*/11);
  const TokenBatch b = dataset.NextBatch(2);

  SetComputeThreads(1);
  ag::TinyGpt model1(cfg, /*seed=*/5);
  const std::vector<float> logits1 = model1.Logits(b.ids, 2).value();
  SetComputeThreads(4);
  ag::TinyGpt model4(cfg, /*seed=*/5);
  const std::vector<float> logits4 = model4.Logits(b.ids, 2).value();
  SetComputeThreads(1);
  EXPECT_TRUE(BitwiseEqual(logits1, logits4));
}

TEST(DeterminismTest, ParallelAdamMatchesScalarReferenceBitwise) {
  // The one update entry point against the plain-loop reference: n
  // spans several 4096-element chunks plus a ragged tail, the grid is
  // split across two calls (odd chunks, then even ones), and the result
  // must be bitwise the reference at 1 and 4 threads.
  const int64_t n = 3 * CpuAdamKernel::kChunk + 1234;
  AdamConfig cfg;
  cfg.lr = 2e-3;
  cfg.weight_decay = 0.05;
  CpuAdamKernel kernel(cfg);
  const float unscale = 1.0f / 512.0f;

  std::vector<float> p_ref = RandomVec(n, 1);
  std::vector<float> m_ref(n, 0.0f), v_ref(n, 0.0f);
  std::vector<int64_t> odds, evens;
  for (int64_t c : CpuAdamKernel::AllChunks(n)) {
    (c % 2 == 1 ? odds : evens).push_back(c);
  }
  std::vector<std::vector<Fp16>> grads(3, std::vector<Fp16>(n));
  for (int step = 1; step <= 3; ++step) {
    const std::vector<float> g32 = RandomVec(n, 100 + step);
    std::vector<float> widened(n);
    for (int64_t i = 0; i < n; ++i) {
      grads[step - 1][i] = FloatToHalf(g32[i] * 512.0f);
      widened[i] = HalfToFloat(grads[step - 1][i]) * unscale;
    }
    kernel.StepSerialOut(step, n, widened.data(), p_ref.data(), m_ref.data(),
                         v_ref.data(), p_ref.data(), m_ref.data(),
                         v_ref.data());
  }

  // Fan out even at this size, on any host: genuine interleaving.
  const int64_t saved_cutoff = SerialCutoff(KernelCost::kAdam);
  SetSerialCutoff(KernelCost::kAdam, 0);
  SetParallelOversubscribe(true);
  for (int threads : {1, 4}) {
    SetComputeThreads(threads);
    ResetDispatchStats();
    std::vector<float> p = RandomVec(n, 1), m(n, 0.0f), v(n, 0.0f);
    for (int step = 1; step <= 3; ++step) {
      // Out of place from the previous state, as the engine runs it.
      const std::vector<float> p_in = p, m_in = m, v_in = v;
      for (const std::vector<int64_t>* chunks : {&odds, &evens}) {
        kernel.StepChunks(step, n, grads[step - 1].data(), *chunks,
                          CpuAdamKernel::kChunk, p_in.data(), m_in.data(),
                          v_in.data(), p.data(), m.data(), v.data(), unscale);
      }
    }
    SetComputeThreads(1);
    if (threads > 1) {
      EXPECT_GT(DispatchStatsFor(KernelCost::kAdam).pooled, 0);
    }
    EXPECT_TRUE(BitwiseEqual(p_ref, p)) << threads << " threads";
    EXPECT_TRUE(BitwiseEqual(m_ref, m)) << threads << " threads";
    EXPECT_TRUE(BitwiseEqual(v_ref, v)) << threads << " threads";
  }
  SetParallelOversubscribe(false);
  SetSerialCutoff(KernelCost::kAdam, saved_cutoff);
}

TEST(DeterminismTest, Fp16GradAdamIsBitwiseIdenticalAcrossThreadCounts) {
  const int64_t n = 2 * CpuAdamKernel::kChunk + 77;
  AdamConfig cfg;
  cfg.lr = 1e-3;
  CpuAdamKernel kernel(cfg);

  const std::vector<float> g32 = RandomVec(n, 9);
  std::vector<Fp16> g16(n);
  for (int64_t i = 0; i < n; ++i) g16[i] = FloatToHalf(g32[i] * 1024.0f);

  auto run = [&](int threads) {
    SetComputeThreads(threads);
    std::vector<float> p = RandomVec(n, 2), m(n, 0.0f), v(n, 0.0f);
    for (int step = 1; step <= 2; ++step) {
      kernel.StepChunks(step, n, g16.data(), CpuAdamKernel::AllChunks(n),
                        CpuAdamKernel::kChunk, p.data(), m.data(), v.data(),
                        p.data(), m.data(), v.data(),
                        /*grad_unscale=*/1.0f / 1024.0f);
    }
    SetComputeThreads(1);
    return p;
  };
  EXPECT_TRUE(BitwiseEqual(run(1), run(4)));
}

TEST(DeterminismTest, GemmBackwardIsBitwiseIdenticalAcrossThreadCounts) {
  // Odd sizes exercise the ragged row/column tails of the tiled GEMMs.
  const int64_t m = 37, k = 53, n = 41;
  const std::vector<float> av = RandomVec(m * k, 3);
  const std::vector<float> bv = RandomVec(k * n, 4);

  auto run = [&](int threads) {
    SetComputeThreads(threads);
    ag::Variable a = ag::Variable::Parameter({m, k}, av, "a");
    ag::Variable b = ag::Variable::Parameter({k, n}, bv, "b");
    ag::Variable out = ag::MatMul(a, b);
    ag::Variable loss = ag::Mean(out);
    loss.Backward();
    std::vector<std::vector<float>> r = {out.value(), a.grad(), b.grad()};
    SetComputeThreads(1);
    return r;
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(serial[i], parallel[i])) << "tensor " << i;
  }
}

// ---------- Offload codecs vs bitwise determinism ----------

// Same TinyGpt workload, but through a full RatelTrainer whose
// activation spills take a real store round trip (host_cache_bytes is
// left 0, so every spilled tensor is encoded, persisted, fetched, and
// decoded — the codec is on the critical path, not shadowed by DRAM).

TrainRun TrainTrainerTinyGpt(int threads, int steps,
                             const std::string& activation_codec,
                             const std::string& tag) {
  SetComputeThreads(threads);
  ag::TinyGptConfig cfg;
  cfg.vocab_size = 48;
  cfg.seq_len = 12;
  cfg.hidden_dim = 32;
  cfg.num_heads = 4;
  cfg.num_layers = 2;
  ag::TinyGpt model(cfg, /*seed=*/77);

  TrainerOptions opts;
  opts.store_dir = ::testing::TempDir() + "/ratel_det_codec_" + tag + "_" +
                   std::to_string(threads) + "_" +
                   std::to_string(::getpid());
  opts.spill_activations = true;
  opts.codec.spec(FlowClass::kActivationSpill) = activation_codec;
  auto trainer = RatelTrainer::Create(&model, opts);
  EXPECT_TRUE(trainer.ok()) << trainer.status().message();

  SyntheticDataset dataset(SyntheticTask::kAffineMap, cfg.vocab_size,
                           cfg.seq_len, /*seed=*/7);
  const int64_t batch = 2;
  TrainRun run;
  for (int step = 1; step <= steps; ++step) {
    const TokenBatch b = dataset.NextBatch(batch);
    auto loss = (*trainer)->TrainStep(b.ids, b.targets, batch);
    EXPECT_TRUE(loss.ok());
    run.losses.push_back(loss.ok() ? *loss : 0.0f);
  }
  for (auto& [name, var] : model.parameters()) {
    std::vector<float> master;
    EXPECT_TRUE((*trainer)->optimizer().FetchMasterParams(name, &master).ok());
    run.params.push_back(std::move(master));
  }
  SetComputeThreads(1);
  return run;
}

void ExpectBitwiseIdenticalRuns(const TrainRun& a, const TrainRun& b) {
  ASSERT_EQ(a.losses.size(), b.losses.size());
  for (size_t i = 0; i < a.losses.size(); ++i) {
    EXPECT_EQ(a.losses[i], b.losses[i]) << "step " << i + 1;
  }
  ASSERT_EQ(a.params.size(), b.params.size());
  for (size_t p = 0; p < a.params.size(); ++p) {
    EXPECT_TRUE(BitwiseEqual(a.params[p], b.params[p]))
        << "parameter tensor " << p << " diverged";
  }
}

TEST(DeterminismTest, Fp16ActivationCodecIsBitwiseIdenticalAcrossThreads) {
  // The lossy spill codec changes *what* the backward pass sees — but
  // it must change it deterministically: encode is a pure elementwise
  // demotion and decode a pure promotion, so thread count still cannot
  // move a single bit of the 3-step trajectory.
  const TrainRun serial =
      TrainTrainerTinyGpt(/*threads=*/1, /*steps=*/3, "fp16", "f16");
  const TrainRun parallel =
      TrainTrainerTinyGpt(/*threads=*/4, /*steps=*/3, "fp16", "f16");
  ExpectBitwiseIdenticalRuns(serial, parallel);
}

TEST(DeterminismTest, IdentityCodecTrajectoryMatchesTheRawPathBitwise) {
  // The PR-acceptance pin: framing spilled activations with the
  // lossless identity codec (CRC + header, different store bytes) must
  // reproduce the no-codec trajectory bit for bit — the codec layer
  // may only transform the store leg, never the training computation.
  const TrainRun raw =
      TrainTrainerTinyGpt(/*threads=*/1, /*steps=*/3, "", "raw");
  const TrainRun framed =
      TrainTrainerTinyGpt(/*threads=*/1, /*steps=*/3, "identity", "id");
  ExpectBitwiseIdenticalRuns(raw, framed);
  // And the framed path stays thread-invariant too.
  const TrainRun framed4 =
      TrainTrainerTinyGpt(/*threads=*/4, /*steps=*/3, "identity", "id");
  ExpectBitwiseIdenticalRuns(framed, framed4);
}

}  // namespace
}  // namespace ratel
