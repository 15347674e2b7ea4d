// Crash-consistency + recovery-determinism suite (ctest labels:
// fault, determinism).
//
// Two layers of guarantee, both proven here:
//   1. Checkpoint files are *verifiable*: every shard carries a
//      CRC-32C, so truncation (a torn write at the filesystem level)
//      or bit rot surfaces as kDataLoss at load — never as a silent
//      resume from garbage — and LoadLatest falls back to the newest
//      checkpoint that still verifies.
//   2. Recovery is *bitwise-deterministic*: a run that crashes, falls
//      back past a torn checkpoint, and resumes produces exactly the
//      losses and master parameters of a run that never crashed.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "autograd/transformer.h"
#include "common/rng.h"
#include "runtime/checkpoint.h"
#include "runtime/ratel_trainer.h"
#include "tests/test_buffers.h"

namespace ratel {
namespace {

std::string TempDir(const std::string& tag) {
  return ::testing::TempDir() + "/ratel_crash_" + tag + "_" +
         std::to_string(::getpid());
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

checkpoint::TensorState MakeTensor(const std::string& name, int64_t n,
                                   uint64_t seed, int64_t step) {
  Rng rng(seed);
  checkpoint::TensorState t;
  t.name = name;
  t.adam_step = step;
  t.p32.resize(n);
  t.m.resize(n);
  t.v.resize(n);
  for (int64_t i = 0; i < n; ++i) {
    t.p32[i] = static_cast<float>(rng.NextGaussian());
    t.m[i] = static_cast<float>(rng.NextGaussian()) * 0.1f;
    t.v[i] = static_cast<float>(rng.NextGaussian()) *
             static_cast<float>(rng.NextGaussian());
  }
  return t;
}

checkpoint::TrainState MakeState(int64_t step) {
  checkpoint::TrainState state;
  state.step = step;
  state.tensors.push_back(MakeTensor("wte", 257, 1 + step, step));
  state.tensors.push_back(MakeTensor("block0/attn.w", 96, 2 + step, step));
  state.tensors.push_back(MakeTensor("ln_f.bias", 1, 3 + step, step));
  return state;
}

// The writer takes views; these point into `state`, which must outlive
// the save (a temporary does: it lives to the end of the call).
checkpoint::TrainStateView ViewOf(const checkpoint::TrainState& state) {
  checkpoint::TrainStateView view;
  view.step = state.step;
  for (const checkpoint::TensorState& t : state.tensors) {
    view.tensors.push_back({t.name, t.adam_step, t.p32.data(), t.m.data(),
                            t.v.data(), static_cast<int64_t>(t.p32.size())});
  }
  return view;
}

int64_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? st.st_size : -1;
}

void TruncateFile(const std::string& path, int64_t drop_bytes) {
  const int64_t size = FileSize(path);
  ASSERT_GT(size, drop_bytes);
  ASSERT_EQ(::truncate(path.c_str(), size - drop_bytes), 0);
}

void FlipByte(const std::string& path, int64_t offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  std::fputc(c ^ 0x40, f);
  ASSERT_EQ(std::fclose(f), 0);
}

// ---------- Checkpoint v2 format ----------

TEST(CheckpointV2Test, SaveStateLoadStateRoundTripsBitwise) {
  const std::string dir = TempDir("rt");
  ASSERT_TRUE(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST);
  const std::string path = dir + "/state.ckpt";
  const checkpoint::TrainState state = MakeState(42);
  ASSERT_TRUE(checkpoint::SaveState(ViewOf(state), path).ok());
  // The shadow file was renamed away: only the published name remains.
  EXPECT_EQ(FileSize(path + ".tmp"), -1);

  auto loaded = checkpoint::LoadState(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->step, 42);
  ASSERT_EQ(loaded->tensors.size(), state.tensors.size());
  for (size_t i = 0; i < state.tensors.size(); ++i) {
    EXPECT_EQ(loaded->tensors[i].name, state.tensors[i].name);
    EXPECT_EQ(loaded->tensors[i].adam_step, state.tensors[i].adam_step);
    EXPECT_TRUE(BitwiseEqual(loaded->tensors[i].p32, state.tensors[i].p32));
    EXPECT_TRUE(BitwiseEqual(loaded->tensors[i].m, state.tensors[i].m));
    EXPECT_TRUE(BitwiseEqual(loaded->tensors[i].v, state.tensors[i].v));
  }
}

TEST(CheckpointV2Test, TruncatedFileIsDetectedAsDataLoss) {
  const std::string dir = TempDir("torn");
  ASSERT_TRUE(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST);
  const std::string path = dir + "/state.ckpt";
  ASSERT_TRUE(checkpoint::SaveState(ViewOf(MakeState(7)), path).ok());
  TruncateFile(path, /*drop_bytes=*/33);
  const auto loaded = checkpoint::LoadState(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(CheckpointV2Test, CorruptedPayloadByteFailsTheShardChecksum) {
  const std::string dir = TempDir("rot");
  ASSERT_TRUE(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST);
  const std::string path = dir + "/state.ckpt";
  ASSERT_TRUE(checkpoint::SaveState(ViewOf(MakeState(7)), path).ok());
  // Flip one bit in the middle of a tensor payload: the size and
  // structure still parse, only the CRC can catch it.
  FlipByte(path, FileSize(path) / 2);
  const auto loaded = checkpoint::LoadState(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(CheckpointV2Test, BadMagicIsDataLossNotAParseAccident) {
  const std::string dir = TempDir("magic");
  ASSERT_TRUE(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST);
  const std::string path = dir + "/state.ckpt";
  ASSERT_TRUE(checkpoint::SaveState(ViewOf(MakeState(1)), path).ok());
  FlipByte(path, 0);
  EXPECT_EQ(checkpoint::LoadState(path).status().code(),
            StatusCode::kDataLoss);
}

TEST(CheckpointV2Test, LoadLatestFallsBackPastATornNewestEpoch) {
  const std::string dir = TempDir("fallback");
  ASSERT_TRUE(checkpoint::SaveVersioned(dir, ViewOf(MakeState(3))).ok());
  ASSERT_TRUE(checkpoint::SaveVersioned(dir, ViewOf(MakeState(5))).ok());
  ASSERT_TRUE(checkpoint::SaveVersioned(dir, ViewOf(MakeState(9))).ok());
  // Power cut "during" epoch 9: the newest file is torn. LoadLatest
  // must detect it via checksums and resume from epoch 5 instead.
  TruncateFile(checkpoint::VersionedPath(dir, 9), /*drop_bytes=*/100);

  auto latest = checkpoint::LoadLatest(dir);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->step, 5);

  // Tear epoch 5 too: fall all the way back to epoch 3.
  TruncateFile(checkpoint::VersionedPath(dir, 5), /*drop_bytes=*/1);
  latest = checkpoint::LoadLatest(dir);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->step, 3);
}

TEST(CheckpointV2Test, LoadLatestOnEmptyOrMissingDirIsNotFound) {
  const std::string dir = TempDir("empty");
  EXPECT_EQ(checkpoint::LoadLatest(dir).status().code(),
            StatusCode::kNotFound);
  // A stale dir left by a pid-recycled earlier run is fine: the test
  // only needs the directory to exist and hold no checkpoints.
  ASSERT_TRUE(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST);
  EXPECT_EQ(checkpoint::LoadLatest(dir).status().code(),
            StatusCode::kNotFound);
}

// A length field the file cannot hold must fail the load with a Status
// before anything is allocated from it: the element count of a shard
// precedes the shard's CRC, so the checksum alone would come too late.
TEST(CheckpointV2Test, LyingTensorLengthIsDataLossAndLoadLatestFallsBack) {
  const std::string dir = TempDir("lying_n");
  ASSERT_TRUE(checkpoint::SaveVersioned(dir, ViewOf(MakeState(3))).ok());
  ASSERT_TRUE(checkpoint::SaveVersioned(dir, ViewOf(MakeState(9))).ok());
  // Header: magic 8 | version 4 | step 8 | count 4 | CRC 4; then the
  // first shard's name length 4 | "wte" 3 | element count 8. Flipping
  // bit 6 of the count's fourth byte claims 2^30 + 257 elements: three
  // 4 GiB arrays if believed.
  const int64_t n_offset = 8 + 4 + 8 + 4 + 4 + 4 + 3;
  FlipByte(checkpoint::VersionedPath(dir, 9), n_offset + 3);
  EXPECT_EQ(checkpoint::LoadState(checkpoint::VersionedPath(dir, 9))
                .status()
                .code(),
            StatusCode::kDataLoss);
  auto latest = checkpoint::LoadLatest(dir);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->step, 3);
}

TEST(CheckpointV1Test, LyingCountOrLengthIsInvalidArgument) {
  const std::string dir = TempDir("v1_lying");
  ASSERT_TRUE(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST);
  const std::string path = dir + "/model.ckpt";
  auto write_v1 = [&](uint32_t count, uint64_t n) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const uint32_t version = 1;
    const uint32_t name_len = 1;
    const float payload[2] = {1.0f, 2.0f};
    std::fwrite("RATELCKP", 1, 8, f);
    std::fwrite(&version, sizeof(version), 1, f);
    std::fwrite(&count, sizeof(count), 1, f);
    std::fwrite(&name_len, sizeof(name_len), 1, f);
    std::fwrite("w", 1, 1, f);
    std::fwrite(&n, sizeof(n), 1, f);
    std::fwrite(payload, sizeof(float), 2, f);
    ASSERT_EQ(std::fclose(f), 0);
  };
  write_v1(/*count=*/1, /*n=*/2);  // the honest file loads
  ASSERT_TRUE(checkpoint::Load(path).ok());
  // No checksum covers the v1 count: ~4G entries claimed.
  write_v1(/*count=*/0xFFFFFFFFu, /*n=*/2);
  EXPECT_EQ(checkpoint::Load(path).status().code(),
            StatusCode::kInvalidArgument);
  // 32 GiB of floats claimed by an entry with 8 payload bytes.
  write_v1(/*count=*/1, /*n=*/uint64_t{1} << 33);
  EXPECT_EQ(checkpoint::Load(path).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------- Trainer crash/recovery determinism ----------

ag::TinyGptConfig SmallConfig() {
  ag::TinyGptConfig cfg;
  cfg.vocab_size = 48;
  cfg.seq_len = 8;
  cfg.hidden_dim = 24;
  cfg.num_heads = 2;
  cfg.num_layers = 2;
  return cfg;
}

void MakeBatch(Rng& rng, int64_t n, int64_t vocab, std::vector<int64_t>* ids,
               std::vector<int64_t>* targets) {
  ids->resize(n);
  targets->resize(n);
  for (int64_t i = 0; i < n; ++i) {
    (*ids)[i] = static_cast<int64_t>(rng.NextBelow(vocab));
    (*targets)[i] = ((*ids)[i] * 3 + 1) % vocab;
  }
}

// Master optimizer state of every parameter, in registration order.
std::vector<std::vector<float>> ExportAllP32(RatelTrainer& trainer,
                                             ag::TinyGpt& model) {
  std::vector<std::vector<float>> out;
  for (auto& [name, var] : model.parameters()) {
    int64_t step = 0;
    Buffer p32, m, v;
    EXPECT_TRUE(
        trainer.optimizer().ExportStateBuffers(name, &step, &p32, &m, &v).ok())
        << name;
    out.push_back(VectorOf<float>(p32));
    out.push_back(VectorOf<float>(m));
    out.push_back(VectorOf<float>(v));
  }
  return out;
}

constexpr int kTotalSteps = 6;
constexpr int kCrashAfter = 3;  // last durable checkpoint
constexpr int64_t kBatch = 2;

TEST(CrashRecoveryTest, ResumeAfterTornCheckpointIsBitwiseIdentical) {
  const ag::TinyGptConfig cfg = SmallConfig();

  // Reference: the run that never crashes.
  std::vector<float> ref_losses;
  std::vector<std::vector<float>> ref_state;
  {
    ag::TinyGpt model(cfg, /*seed=*/44);
    TrainerOptions opts;
    opts.store_dir = TempDir("ref_store");
    auto trainer = RatelTrainer::Create(&model, opts);
    ASSERT_TRUE(trainer.ok()) << trainer.status().ToString();
    Rng rng(5);
    std::vector<int64_t> ids, targets;
    for (int step = 0; step < kTotalSteps; ++step) {
      MakeBatch(rng, kBatch * cfg.seq_len, cfg.vocab_size, &ids, &targets);
      auto loss = (*trainer)->TrainStep(ids, targets, kBatch);
      ASSERT_TRUE(loss.ok()) << loss.status().ToString();
      ref_losses.push_back(*loss);
    }
    EXPECT_EQ((*trainer)->global_step(), kTotalSteps);
    ref_state = ExportAllP32(**trainer, model);
  }

  // Crashing run: checkpoint after step 3, train one more step whose
  // checkpoint is torn by the "power cut", then die.
  const std::string ckpt_dir = TempDir("ckpts");
  {
    ag::TinyGpt model(cfg, /*seed=*/44);
    TrainerOptions opts;
    opts.store_dir = TempDir("crash_store");
    auto trainer = RatelTrainer::Create(&model, opts);
    ASSERT_TRUE(trainer.ok());
    Rng rng(5);
    std::vector<int64_t> ids, targets;
    for (int step = 0; step < kCrashAfter + 1; ++step) {
      MakeBatch(rng, kBatch * cfg.seq_len, cfg.vocab_size, &ids, &targets);
      auto loss = (*trainer)->TrainStep(ids, targets, kBatch);
      ASSERT_TRUE(loss.ok());
      // The first kCrashAfter losses must already match the reference.
      if (step < static_cast<int>(ref_losses.size())) {
        EXPECT_EQ(*loss, ref_losses[step]) << "pre-crash step " << step;
      }
      if (step == kCrashAfter - 1 || step == kCrashAfter) {
        ASSERT_TRUE((*trainer)->SaveCheckpoint(ckpt_dir).ok());
      }
    }
  }
  // The step-4 checkpoint is torn; only the step-3 epoch verifies.
  TruncateFile(checkpoint::VersionedPath(ckpt_dir, kCrashAfter + 1),
               /*drop_bytes=*/64);

  // Resumed run: a fresh process (fresh model, fresh store) restores
  // the newest *valid* checkpoint and replays the remaining batches.
  std::vector<float> resumed_losses;
  std::vector<std::vector<float>> resumed_state;
  {
    ag::TinyGpt model(cfg, /*seed=*/44);
    TrainerOptions opts;
    opts.store_dir = TempDir("resume_store");
    auto trainer = RatelTrainer::Create(&model, opts);
    ASSERT_TRUE(trainer.ok());
    auto resumed_at = (*trainer)->RestoreLatestCheckpoint(ckpt_dir);
    ASSERT_TRUE(resumed_at.ok()) << resumed_at.status().ToString();
    EXPECT_EQ(*resumed_at, kCrashAfter);  // fell back past the torn epoch
    EXPECT_EQ((*trainer)->global_step(), kCrashAfter);

    // Replay the data stream to the crash point, then train on.
    Rng rng(5);
    std::vector<int64_t> ids, targets;
    for (int step = 0; step < kCrashAfter; ++step) {
      MakeBatch(rng, kBatch * cfg.seq_len, cfg.vocab_size, &ids, &targets);
    }
    for (int step = kCrashAfter; step < kTotalSteps; ++step) {
      MakeBatch(rng, kBatch * cfg.seq_len, cfg.vocab_size, &ids, &targets);
      auto loss = (*trainer)->TrainStep(ids, targets, kBatch);
      ASSERT_TRUE(loss.ok());
      resumed_losses.push_back(*loss);
    }
    EXPECT_EQ((*trainer)->global_step(), kTotalSteps);
    resumed_state = ExportAllP32(**trainer, model);
  }

  // Post-resume losses are bitwise what the uninterrupted run produced.
  ASSERT_EQ(resumed_losses.size(),
            static_cast<size_t>(kTotalSteps - kCrashAfter));
  for (size_t i = 0; i < resumed_losses.size(); ++i) {
    EXPECT_EQ(resumed_losses[i], ref_losses[kCrashAfter + i])
        << "post-resume step " << kCrashAfter + i;
  }
  // And so is the full optimizer state (P32 + both moments, every
  // tensor): the crash is invisible to the training trajectory.
  ASSERT_EQ(resumed_state.size(), ref_state.size());
  for (size_t i = 0; i < ref_state.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(resumed_state[i], ref_state[i]))
        << "state vector " << i << " diverged";
  }
}

TEST(CrashRecoveryTest, RestoreWithoutAnyValidCheckpointIsNotFound) {
  ag::TinyGpt model(SmallConfig(), /*seed=*/3);
  TrainerOptions opts;
  opts.store_dir = TempDir("nf_store");
  auto trainer = RatelTrainer::Create(&model, opts);
  ASSERT_TRUE(trainer.ok());
  const auto resumed =
      (*trainer)->RestoreLatestCheckpoint(TempDir("nf_ckpts"));
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kNotFound);
  EXPECT_EQ((*trainer)->global_step(), 0);
}

}  // namespace
}  // namespace ratel
