// Asynchronous-optimizer suite (ctest labels: determinism, async).
//
// The stall-free update pipeline promises two things at once:
//   1. *Sync mode is untouched*: with AsyncUpdateOptions{} the engine is
//      bitwise identical to the classic blocking out-of-core Adam — same
//      arithmetic, same per-flow traffic.
//   2. *Async mode is exact, bounded, and reproducible*: deferring the
//      tail chunks changes WHEN state is written, never WHAT — the
//      final state matches sync bitwise, every consumer drains the
//      pending epoch first (staleness <= 1 step), and because the
//      hot/tail split has fixed boundaries the whole run is bitwise
//      reproducible at any compute or background thread count.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "autograd/transformer.h"
#include "common/logging.h"
#include "common/rng.h"
#include "runtime/checkpoint.h"
#include "runtime/async_update_engine.h"
#include "runtime/compute_pool.h"
#include "runtime/ratel_trainer.h"
#include "tests/test_buffers.h"

namespace ratel {
namespace {

std::string TempDir(const std::string& tag) {
  return ::testing::TempDir() + "/ratel_async_" + tag + "_" +
         std::to_string(::getpid());
}

Result<std::unique_ptr<TransferEngine>> OpenEngine(
    const std::string& tag, int64_t cache_bytes = 0,
    double write_bandwidth = 0.0, FaultInjector* injector = nullptr) {
  TransferOptions opts;
  opts.dir = TempDir(tag);
  opts.num_stripes = 2;
  opts.chunk_bytes = 4096;
  opts.host_cache_bytes = cache_bytes;
  opts.write_bandwidth = write_bandwidth;
  opts.fault_injector = injector;
  return TransferEngine::Open(opts);
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool BitwiseEqual16(const std::vector<Fp16>& a, const std::vector<Fp16>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Fp16)) == 0;
}

std::vector<float> RandomVec(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (int64_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(rng.NextGaussian()) * 0.5f;
  }
  return v;
}

std::vector<Fp16> RandomGrads16(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Fp16> g(n);
  for (int64_t i = 0; i < n; ++i) {
    g[i] = FloatToHalf(static_cast<float>(rng.NextGaussian()) * 0.1f);
  }
  return g;
}

// ---------- Env overlay ----------

TEST(AsyncUpdateOptionsTest, FromEnvOverlaysTheKnobs) {
  ::setenv("RATEL_ASYNC_OPTIM", "1", 1);
  ::setenv("RATEL_ASYNC_HOT_FRACTION", "0.5", 1);
  AsyncUpdateOptions base;
  base.hot_fraction = 0.25;
  const AsyncUpdateOptions on = AsyncUpdateOptions::FromEnv(base);
  EXPECT_TRUE(on.async);
  EXPECT_DOUBLE_EQ(on.hot_fraction, 0.5);

  // "0" forces sync even when the caller asked for async.
  ::setenv("RATEL_ASYNC_OPTIM", "0", 1);
  ::unsetenv("RATEL_ASYNC_HOT_FRACTION");
  base.async = true;
  const AsyncUpdateOptions off = AsyncUpdateOptions::FromEnv(base);
  EXPECT_FALSE(off.async);
  EXPECT_DOUBLE_EQ(off.hot_fraction, 0.25);  // untouched without the knob
  ::unsetenv("RATEL_ASYNC_OPTIM");

  // Unset env leaves the base untouched.
  const AsyncUpdateOptions same = AsyncUpdateOptions::FromEnv(base);
  EXPECT_TRUE(same.async);
}

// ---------- Importance partition ----------

TEST(ChunkPartitionTest, CoversEveryChunkExactlyOnceWithFixedBoundaries) {
  const int64_t chunk = 8;
  const int64_t n = 100;  // 13 chunks, ragged tail
  const std::vector<Fp16> g = RandomGrads16(n, 42);
  const ChunkPartition part =
      PartitionChunksByImportance(n, g.data(), /*hot_fraction=*/0.25, chunk);
  EXPECT_EQ(part.chunk, chunk);
  // ceil(0.25 * 13) = 4 hot chunks.
  EXPECT_EQ(static_cast<int64_t>(part.hot.size()), 4);
  EXPECT_EQ(part.hot.size() + part.tail.size(), 13u);
  // Both lists ascending, union = [0, 13).
  std::vector<bool> seen(13, false);
  for (size_t i = 1; i < part.hot.size(); ++i) {
    EXPECT_LT(part.hot[i - 1], part.hot[i]);
  }
  for (size_t i = 1; i < part.tail.size(); ++i) {
    EXPECT_LT(part.tail[i - 1], part.tail[i]);
  }
  for (int64_t c : part.hot) seen[c] = true;
  for (int64_t c : part.tail) {
    EXPECT_FALSE(seen[c]) << "chunk " << c << " in both lists";
    seen[c] = true;
  }
  for (int64_t c = 0; c < 13; ++c) EXPECT_TRUE(seen[c]) << "chunk " << c;
}

TEST(ChunkPartitionTest, IsAPureFunctionAcrossThreadCounts) {
  const int64_t n = 64 * 9 + 17;
  const std::vector<Fp16> g = RandomGrads16(n, 7);
  SetComputeThreads(1);
  const ChunkPartition serial =
      PartitionChunksByImportance(n, g.data(), 0.3, /*chunk=*/64);
  SetComputeThreads(4);
  const ChunkPartition parallel =
      PartitionChunksByImportance(n, g.data(), 0.3, /*chunk=*/64);
  SetComputeThreads(1);
  EXPECT_EQ(serial.hot, parallel.hot);
  EXPECT_EQ(serial.tail, parallel.tail);
}

TEST(ChunkPartitionTest, DegenerateFractionsClampSanely) {
  const int64_t n = 64 * 4;
  const std::vector<Fp16> g = RandomGrads16(n, 3);
  // >= 1: everything is hot, nothing defers.
  const ChunkPartition all =
      PartitionChunksByImportance(n, g.data(), 1.0, /*chunk=*/64);
  EXPECT_EQ(all.hot.size(), 4u);
  EXPECT_TRUE(all.tail.empty());
  // 0: at least one chunk is always hot (the critical-path anchor).
  const ChunkPartition one =
      PartitionChunksByImportance(n, g.data(), 0.0, /*chunk=*/64);
  EXPECT_EQ(one.hot.size(), 1u);
  EXPECT_EQ(one.tail.size(), 3u);
}

TEST(ChunkPartitionTest, PicksTheLargestGradientChunksAsHot) {
  // Chunk 2 carries all the gradient mass; it must be the hot one.
  const int64_t chunk = 4;
  std::vector<Fp16> g(16, FloatToHalf(0.0f));
  for (int64_t i = 8; i < 12; ++i) g[i] = FloatToHalf(3.0f);
  const ChunkPartition part =
      PartitionChunksByImportance(16, g.data(), 0.0, chunk);
  ASSERT_EQ(part.hot.size(), 1u);
  EXPECT_EQ(part.hot[0], 2);
}

// ---------- Sync mode: bitwise the classic optimizer ----------

TEST(AsyncOptimTest, SyncModeMatchesInMemoryChunkedAdamBitwise) {
  auto engine = OpenEngine("sync_ref");
  ASSERT_TRUE(engine.ok());
  AdamConfig cfg;
  cfg.lr = 1e-2;
  cfg.weight_decay = 0.01;
  AsyncUpdateEngine ooc(cfg, engine->get());  // defaults: sync mode
  EXPECT_FALSE(ooc.async());
  ChunkedCpuAdam ram(cfg);

  const int64_t n = 512;
  const std::vector<float> init = RandomVec(n, 1);
  ASSERT_TRUE(ooc.Register("w", init).ok());
  ASSERT_TRUE(ram.Register("w", init).ok());
  for (int step = 1; step <= 5; ++step) {
    const std::vector<Fp16> g = RandomGrads16(n, 100 + step);
    ASSERT_TRUE(ooc.StepTensor("w", g).ok());
    ASSERT_TRUE(ram.StepTensor("w", g).ok());
  }
  std::vector<float> master;
  ASSERT_TRUE(ooc.FetchMasterParams("w", &master).ok());
  auto ref = ram.MasterParams("w");
  ASSERT_TRUE(ref.ok());
  EXPECT_TRUE(BitwiseEqual(master, **ref));
  // Sync mode never touches the pipeline counters or the deferred flow.
  const AsyncUpdateEngine::Stats stats = ooc.stats();
  EXPECT_EQ(stats.deferred_epochs, 0);
  EXPECT_EQ(stats.tail_chunks, 0);
  EXPECT_EQ((*engine)->stats().Flow(FlowClass::kDeferredState).bytes_written,
            0);
}

// ---------- The stored blob set ----------

TEST(AsyncOptimTest, NoP16BlobIsEverStored) {
  // P32 is the only parameter blob: Register, StepTensor and
  // ImportState each leave exactly P32 and the two moments per tensor,
  // in either mode, with or without a DRAM tier in front of the store.
  for (bool async : {false, true}) {
    for (int64_t cache : {int64_t{0}, int64_t{1} << 20}) {
      SCOPED_TRACE(std::string(async ? "async" : "sync") +
                   (cache > 0 ? " tier" : " no tier"));
      auto engine = OpenEngine(std::string("no_p16_") + (async ? "a" : "s") +
                                   (cache > 0 ? "t" : "n"),
                               cache);
      ASSERT_TRUE(engine.ok());
      AsyncUpdateOptions opts;
      opts.async = async;
      opts.chunk = 64;
      AsyncUpdateEngine ooc(AdamConfig{}, engine->get(), opts);
      const int64_t n = 512;
      auto expect_state_only = [&](const std::vector<std::string>& names) {
        ASSERT_TRUE(ooc.DrainAll().ok());
        for (const std::string& name : names) {
          EXPECT_FALSE((*engine)->Contains("p16/" + name)) << name;
          EXPECT_TRUE((*engine)->Contains("p32/" + name)) << name;
        }
        EXPECT_EQ((*engine)->store().num_blobs(),
                  3 * static_cast<int64_t>(names.size()));
      };
      ASSERT_TRUE(ooc.Register("w", RandomVec(n, 1)).ok());
      expect_state_only({"w"});
      ASSERT_TRUE(ooc.StepTensor("w", RandomGrads16(n, 2)).ok());
      expect_state_only({"w"});
      ASSERT_TRUE(ooc.ImportState("w", 5, RandomVec(n, 3), RandomVec(n, 4),
                                  RandomVec(n, 5))
                      .ok());
      ASSERT_TRUE(ooc.ImportState("z", 1, RandomVec(n, 6), RandomVec(n, 7),
                                  RandomVec(n, 8))
                      .ok());
      expect_state_only({"w", "z"});
      // The fp16 copy is still served, derived from P32.
      std::vector<Fp16> p16;
      ASSERT_TRUE(ooc.FetchParams16("w", &p16).ok());
      const std::vector<float> p32 = RandomVec(n, 3);
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(p16[i], FloatToHalf(p32[i])) << i;
      }
    }
  }
}

// ---------- Sync mode: writebacks behind the per-tensor gate ----------

TEST(AsyncOptimTest, SyncConsumersSeeTheNewStepWithoutADramTier) {
  // Sync StepTensor returns with its writebacks still in flight (a
  // 2 MB/s write channel keeps them there). With no DRAM tier every
  // consumer reads the store, so each must drain the tensor durably
  // first: the fetches and the export right after the step observe it.
  auto engine = OpenEngine("sync_gate", /*cache_bytes=*/0,
                           /*write_bandwidth=*/2e6);
  ASSERT_TRUE(engine.ok());
  AdamConfig cfg;
  cfg.lr = 1e-2;
  AsyncUpdateEngine ooc(cfg, engine->get());
  ChunkedCpuAdam ram(cfg);
  const int64_t n = 2048;
  const std::vector<float> init = RandomVec(n, 31);
  ASSERT_TRUE(ooc.Register("w", init).ok());
  ASSERT_TRUE(ram.Register("w", init).ok());
  for (int step = 1; step <= 3; ++step) {
    const std::vector<Fp16> g = RandomGrads16(n, 700 + step);
    ASSERT_TRUE(ram.StepTensor("w", g).ok());
    auto ref = ram.MasterParams("w");
    ASSERT_TRUE(ref.ok());
    std::vector<Fp16> ref16(n);
    for (int64_t i = 0; i < n; ++i) ref16[i] = FloatToHalf((**ref)[i]);

    ASSERT_TRUE(ooc.StepTensor("w", g).ok());
    std::vector<Fp16> p16;
    ASSERT_TRUE(ooc.FetchParams16("w", &p16).ok());
    EXPECT_TRUE(BitwiseEqual16(p16, ref16)) << "step " << step;

    ASSERT_TRUE(ooc.StepTensor("w", g).ok());
    ASSERT_TRUE(ram.StepTensor("w", g).ok());
    std::vector<float> master;
    ASSERT_TRUE(ooc.FetchMasterParams("w", &master).ok());
    EXPECT_TRUE(BitwiseEqual(master, **ref)) << "step " << step;

    ASSERT_TRUE(ooc.StepTensor("w", g).ok());
    ASSERT_TRUE(ram.StepTensor("w", g).ok());
    int64_t adam_step = 0;
    Buffer p32, m, v;
    ASSERT_TRUE(ooc.ExportStateBuffers("w", &adam_step, &p32, &m, &v).ok());
    EXPECT_EQ(adam_step, 3 * step);
    EXPECT_TRUE(BitwiseEqual(VectorOf<float>(p32), **ref)) << "step " << step;
  }
  // Every one of those drains found writebacks still in flight.
  EXPECT_GT(ooc.stats().drain_waits, 0);
  EXPECT_EQ(ooc.stats().background_seconds, 0.0);
}

TEST(AsyncOptimTest, SyncWritebackFailureSurfacesAtTheNextDrainOrStep) {
  // Only model-state (kGradState) writes fail; the tensors are
  // registered through the checkpoint flow (ImportState), so setup
  // succeeds. StepTensor itself succeeds — it only submits — and the
  // failure surfaces, sticky, at the tensor's next drain or step.
  TransferOptions topts;
  topts.dir = TempDir("sync_wfail");
  topts.num_stripes = 2;
  topts.chunk_bytes = 4096;
  topts.fault.write_error_every = 1;
  topts.fault.flow_mask = 1u << static_cast<int>(FlowClass::kGradState);
  topts.retry.max_attempts = 1;
  auto engine = TransferEngine::Open(topts);
  ASSERT_TRUE(engine.ok());
  AsyncUpdateEngine ooc(AdamConfig{}, engine->get());
  const int64_t n = 64;
  const std::vector<float> zeros(n, 0.0f);
  for (const char* name : {"a", "b"}) {
    ASSERT_TRUE(ooc.ImportState(name, 0, RandomVec(n, 3), zeros, zeros).ok());
  }
  const std::vector<Fp16> g = RandomGrads16(n, 5);
  ASSERT_TRUE(ooc.StepTensor("a", g).ok());
  EXPECT_EQ(ooc.DrainTensor("a").code(), StatusCode::kUnavailable);
  EXPECT_EQ(ooc.StepTensor("a", g).code(), StatusCode::kUnavailable);
  ASSERT_TRUE(ooc.StepTensor("b", g).ok());
  EXPECT_EQ(ooc.StepTensor("b", g).code(), StatusCode::kUnavailable);
  EXPECT_EQ(ooc.DrainAll().code(), StatusCode::kUnavailable);
}

// ---------- Async mode: exact, overlapped, reproducible ----------

struct RunResult {
  std::vector<float> p32, m, v;
  std::vector<Fp16> p16;
  AsyncUpdateEngine::Stats stats;
};

// Runs `steps` updates of one tensor under the given options and
// returns the final out-of-core state.
RunResult RunUpdates(const std::string& tag, const AsyncUpdateOptions& options,
                     int64_t n, int steps, int compute_threads,
                     int64_t cache_bytes) {
  SetComputeThreads(compute_threads);
  auto engine = OpenEngine(tag, cache_bytes);
  EXPECT_TRUE(engine.ok());
  AdamConfig cfg;
  cfg.lr = 2e-3;
  cfg.weight_decay = 0.05;
  RunResult result;
  {
    AsyncUpdateEngine ooc(cfg, engine->get(), options);
    EXPECT_TRUE(ooc.Register("w", RandomVec(n, 11)).ok());
    for (int step = 1; step <= steps; ++step) {
      EXPECT_TRUE(ooc.StepTensor("w", RandomGrads16(n, 500 + step)).ok());
    }
    int64_t adam_step = 0;
    Buffer p32, m, v;
    EXPECT_TRUE(ooc.ExportStateBuffers("w", &adam_step, &p32, &m, &v).ok());
    result.p32 = VectorOf<float>(p32);
    result.m = VectorOf<float>(m);
    result.v = VectorOf<float>(v);
    EXPECT_EQ(adam_step, steps);
    EXPECT_TRUE(ooc.FetchParams16("w", &result.p16).ok());
    result.stats = ooc.stats();
  }
  SetComputeThreads(1);
  return result;
}

// Multi-chunk at partition granularity 64, with a ragged tail.
constexpr int64_t kN = 64 * 7 + 13;
constexpr int kSteps = 5;

TEST(AsyncOptimTest, AsyncFinalStateMatchesSyncBitwise) {
  const RunResult sync = RunUpdates("m_sync", AsyncUpdateOptions{}, kN, kSteps,
                                    /*compute_threads=*/1, /*cache_bytes=*/0);
  AsyncUpdateOptions async;
  async.async = true;
  async.hot_fraction = 0.25;
  async.chunk = 64;
  const RunResult deferred = RunUpdates("m_async", async, kN, kSteps,
                                        /*compute_threads=*/1,
                                        /*cache_bytes=*/1 << 20);
  // The pipeline really deferred work...
  EXPECT_GT(deferred.stats.deferred_epochs, 0);
  EXPECT_GT(deferred.stats.tail_chunks, 0);
  EXPECT_GT(deferred.stats.hot_chunks, 0);
  // ...and changed nothing about the result.
  EXPECT_TRUE(BitwiseEqual(sync.p32, deferred.p32));
  EXPECT_TRUE(BitwiseEqual(sync.m, deferred.m));
  EXPECT_TRUE(BitwiseEqual(sync.v, deferred.v));
  EXPECT_TRUE(BitwiseEqual16(sync.p16, deferred.p16));
}

TEST(AsyncOptimTest, AsyncWithoutDramTierIsStillExact) {
  // No cache: the drain barrier hardens to durable (store writes
  // resolved). Same bitwise contract.
  const RunResult sync = RunUpdates("nc_sync", AsyncUpdateOptions{}, kN, kSteps,
                                    1, /*cache_bytes=*/0);
  AsyncUpdateOptions async;
  async.async = true;
  async.chunk = 64;
  const RunResult deferred =
      RunUpdates("nc_async", async, kN, kSteps, 1, /*cache_bytes=*/0);
  EXPECT_GT(deferred.stats.deferred_epochs, 0);
  EXPECT_TRUE(BitwiseEqual(sync.p32, deferred.p32));
  EXPECT_TRUE(BitwiseEqual(sync.m, deferred.m));
  EXPECT_TRUE(BitwiseEqual(sync.v, deferred.v));
  EXPECT_TRUE(BitwiseEqual16(sync.p16, deferred.p16));
}

TEST(AsyncOptimTest, AsyncIsBitwiseReproducibleAcrossThreadCounts) {
  AsyncUpdateOptions async;
  async.async = true;
  async.hot_fraction = 0.3;
  async.chunk = 64;
  const RunResult a = RunUpdates("rep_a", async, kN, kSteps,
                                 /*compute_threads=*/1, /*cache_bytes=*/1 << 20);
  async.background_threads = 2;
  const RunResult b = RunUpdates("rep_b", async, kN, kSteps,
                                 /*compute_threads=*/4, /*cache_bytes=*/1 << 20);
  EXPECT_GT(a.stats.deferred_epochs, 0);
  EXPECT_TRUE(BitwiseEqual(a.p32, b.p32));
  EXPECT_TRUE(BitwiseEqual(a.m, b.m));
  EXPECT_TRUE(BitwiseEqual(a.v, b.v));
  EXPECT_TRUE(BitwiseEqual16(a.p16, b.p16));
  // The fixed partition boundaries also pin the hot/tail accounting.
  EXPECT_EQ(a.stats.hot_chunks, b.stats.hot_chunks);
  EXPECT_EQ(a.stats.tail_chunks, b.stats.tail_chunks);
}

TEST(AsyncOptimTest, StalenessBoundEveryFetchSeesTheFullyAppliedStep) {
  auto sync_engine = OpenEngine("stale_sync");
  auto async_engine = OpenEngine("stale_async", /*cache_bytes=*/1 << 20);
  ASSERT_TRUE(sync_engine.ok());
  ASSERT_TRUE(async_engine.ok());
  AdamConfig cfg;
  cfg.lr = 1e-2;
  AsyncUpdateOptions opts;
  opts.async = true;
  opts.hot_fraction = 0.25;
  opts.chunk = 64;
  AsyncUpdateEngine sync_adam(cfg, sync_engine->get());
  AsyncUpdateEngine async_adam(cfg, async_engine->get(), opts);

  const std::vector<float> init = RandomVec(kN, 21);
  ASSERT_TRUE(sync_adam.Register("w", init).ok());
  ASSERT_TRUE(async_adam.Register("w", init).ok());
  for (int step = 1; step <= kSteps; ++step) {
    const std::vector<Fp16> g = RandomGrads16(kN, 900 + step);
    ASSERT_TRUE(sync_adam.StepTensor("w", g).ok());
    ASSERT_TRUE(async_adam.StepTensor("w", g).ok());
    // Immediately after the step returns (tail epoch possibly still in
    // flight), a fetch must observe step N fully applied — never the
    // hot-only intermediate, never step N-1.
    std::vector<Fp16> p16_sync, p16_async;
    ASSERT_TRUE(sync_adam.FetchParams16("w", &p16_sync).ok());
    ASSERT_TRUE(async_adam.FetchParams16("w", &p16_async).ok());
    EXPECT_TRUE(BitwiseEqual16(p16_sync, p16_async)) << "step " << step;
    std::vector<float> m_sync, m_async;
    ASSERT_TRUE(sync_adam.FetchMasterParams("w", &m_sync).ok());
    ASSERT_TRUE(async_adam.FetchMasterParams("w", &m_async).ok());
    EXPECT_TRUE(BitwiseEqual(m_sync, m_async)) << "step " << step;
  }
  EXPECT_GT(async_adam.stats().deferred_epochs, 0);
  // Deferred traffic travelled on its own flow and is fully accounted.
  const TransferStats stats = (*async_engine)->stats();
  EXPECT_GT(stats.Flow(FlowClass::kDeferredState).bytes_written, 0);
  EXPECT_EQ(stats.Flow(FlowClass::kDeferredState).errors, 0);
}

// The two hard cases of the "published" drain barrier: the DRAM tier
// is a bounded LRU, so a deferred epoch's freshly admitted blobs can be
// evicted (or, if oversized, never admitted) while their store writes
// are still in flight behind a throttled channel. Residency pinning —
// and the per-epoch durable fallback when a pin cannot be taken — must
// keep every post-drain read exact anyway.

TEST(AsyncOptimTest, ExactUnderDramEvictionPressure) {
  // Three tensors churning a tier that holds roughly ONE tensor's
  // 14 B/param write set, writes throttled so the deferred epochs'
  // store writes stay in flight while the foreground fetches.
  auto sync_engine = OpenEngine("evict_sync");
  auto async_engine = OpenEngine("evict_async", /*cache_bytes=*/8192,
                                 /*write_bandwidth=*/2e6);
  ASSERT_TRUE(sync_engine.ok());
  ASSERT_TRUE(async_engine.ok());
  AdamConfig cfg;
  cfg.lr = 1e-2;
  AsyncUpdateOptions opts;
  opts.async = true;
  opts.hot_fraction = 0.25;
  opts.chunk = 64;
  AsyncUpdateEngine sync_adam(cfg, sync_engine->get());
  AsyncUpdateEngine async_adam(cfg, async_engine->get(), opts);

  const std::vector<std::string> names = {"w0", "w1", "w2"};
  for (size_t t = 0; t < names.size(); ++t) {
    const std::vector<float> init = RandomVec(kN, 31 + t);
    ASSERT_TRUE(sync_adam.Register(names[t], init).ok());
    ASSERT_TRUE(async_adam.Register(names[t], init).ok());
  }
  for (int step = 1; step <= kSteps; ++step) {
    for (size_t t = 0; t < names.size(); ++t) {
      const std::vector<Fp16> g = RandomGrads16(kN, 700 + 10 * step + t);
      ASSERT_TRUE(sync_adam.StepTensor(names[t], g).ok());
      ASSERT_TRUE(async_adam.StepTensor(names[t], g).ok());
    }
    // Post-drain reads while sibling tensors' epochs thrash the tier:
    // never stale, never a mixed old/new P32-m-v set.
    for (const std::string& name : names) {
      std::vector<float> m_sync, m_async;
      ASSERT_TRUE(sync_adam.FetchMasterParams(name, &m_sync).ok());
      ASSERT_TRUE(async_adam.FetchMasterParams(name, &m_async).ok());
      EXPECT_TRUE(BitwiseEqual(m_sync, m_async))
          << name << " stale at step " << step;
    }
  }
  for (const std::string& name : names) {
    int64_t step_sync = 0, step_async = 0;
    Buffer p_s, m_s, v_s, p_a, m_a, v_a;
    ASSERT_TRUE(
        sync_adam.ExportStateBuffers(name, &step_sync, &p_s, &m_s, &v_s).ok());
    ASSERT_TRUE(
        async_adam.ExportStateBuffers(name, &step_async, &p_a, &m_a, &v_a)
            .ok());
    EXPECT_EQ(step_sync, step_async);
    EXPECT_TRUE(BitwiseEqual(VectorOf<float>(p_s), VectorOf<float>(p_a)))
        << name;
    EXPECT_TRUE(BitwiseEqual(VectorOf<float>(m_s), VectorOf<float>(m_a)))
        << name;
    EXPECT_TRUE(BitwiseEqual(VectorOf<float>(v_s), VectorOf<float>(v_a)))
        << name;
  }
  EXPECT_GT(async_adam.stats().deferred_epochs, 0);
  EXPECT_EQ((*async_engine)->stats().Flow(FlowClass::kDeferredState).errors,
            0);
}

TEST(AsyncOptimTest, OversizedTensorsFallBackToDurableDrain) {
  // The tier is smaller than a single P32 blob, so the written state is
  // never admitted and no pin can be taken: every epoch must harden its
  // drain barrier to "store writes resolved" — otherwise each fetch
  // would read step N-1 from behind the throttled write channel.
  auto sync_engine = OpenEngine("small_sync");
  auto async_engine = OpenEngine("small_async", /*cache_bytes=*/1024,
                                 /*write_bandwidth=*/2e6);
  ASSERT_TRUE(sync_engine.ok());
  ASSERT_TRUE(async_engine.ok());
  AdamConfig cfg;
  cfg.lr = 1e-2;
  AsyncUpdateOptions opts;
  opts.async = true;
  opts.hot_fraction = 0.25;
  opts.chunk = 64;
  AsyncUpdateEngine sync_adam(cfg, sync_engine->get());
  AsyncUpdateEngine async_adam(cfg, async_engine->get(), opts);
  const std::vector<float> init = RandomVec(kN, 61);
  ASSERT_TRUE(sync_adam.Register("w", init).ok());
  ASSERT_TRUE(async_adam.Register("w", init).ok());
  for (int step = 1; step <= kSteps; ++step) {
    const std::vector<Fp16> g = RandomGrads16(kN, 800 + step);
    ASSERT_TRUE(sync_adam.StepTensor("w", g).ok());
    ASSERT_TRUE(async_adam.StepTensor("w", g).ok());
    std::vector<float> m_sync, m_async;
    ASSERT_TRUE(sync_adam.FetchMasterParams("w", &m_sync).ok());
    ASSERT_TRUE(async_adam.FetchMasterParams("w", &m_async).ok());
    EXPECT_TRUE(BitwiseEqual(m_sync, m_async)) << "stale at step " << step;
  }
  const AsyncUpdateEngine::Stats stats = async_adam.stats();
  EXPECT_GT(stats.deferred_epochs, 0);
  // Deterministic here: a 4*kN-byte blob can never be pinned in a
  // 1 KiB tier, so every deferred epoch took the durable fallback.
  EXPECT_EQ(stats.durable_fallback_epochs, stats.deferred_epochs);
}

// An async optimizer with 32 registered tensors, for the checkpoint
// barrier tests below.
struct ParkableOptimizer {
  FaultInjector injector{FaultConfig{}};
  Result<std::unique_ptr<TransferEngine>> engine;
  std::unique_ptr<AsyncUpdateEngine> adam;
  std::vector<std::string> names;

  explicit ParkableOptimizer(const std::string& tag)
      : engine(OpenEngine(tag, /*cache_bytes=*/1 << 20,
                          /*write_bandwidth=*/8e6, &injector)) {
    RATEL_CHECK(engine.ok());
    AsyncUpdateOptions opts;
    opts.async = true;
    opts.chunk = 64;
    opts.key_namespace = "a/";
    adam = std::make_unique<AsyncUpdateEngine>(AdamConfig{}, engine->get(),
                                               opts);
    names.push_back("slow");
    for (int t = 1; t < 32; ++t) names.push_back("w" + std::to_string(t));
    for (size_t t = 0; t < names.size(); ++t) {
      RATEL_CHECK_OK(adam->Register(names[t], RandomVec(kN, 90 + t)));
    }
  }

  // A test that fails before the release must not hang the teardown.
  ~ParkableOptimizer() { injector.ReleaseStalled(); }

  // Steps every tensor and runs `save` while the updates are published
  // but their writebacks still queue behind the reaper: the first
  // tensor's P32 write is parked in an I/O worker (the reaper blocks on
  // it) until 100 ms into the save, and every later write-set waits in
  // the reaper's queue while its writes land on the other worker.
  Status SaveWhileWritebacksQueued(const std::function<Status()>& save) {
    injector.StallOpsOn(adam->MasterParamsKey(names[0]));
    for (size_t t = 0; t < names.size(); ++t) {
      RATEL_RETURN_IF_ERROR(
          adam->StepTensor(names[t], RandomGrads16(kN, 95 + t)));
    }
    injector.WaitForStalled(1);
    for (const std::string& name : names) {
      RATEL_RETURN_IF_ERROR(adam->DrainTensor(name));  // all published
    }
    std::thread release([this] {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      injector.ReleaseStalled();
    });
    const Status saved = save();
    release.join();
    return saved;
  }
};

// The v1 master-weight checkpoint must fence through the optimizer:
// draining the engine underneath it would consume the write tickets the
// reaper has yet to wait on, and the reaper would record that as the
// tensors' sticky error.
TEST(AsyncOptimTest, V1CheckpointSaveLeavesTheAsyncOptimizerHealthy) {
  ParkableOptimizer opt("v1_save");
  const std::string path = TempDir("v1_save") + ".ckpt";
  const Status saved = opt.SaveWhileWritebacksQueued(
      [&] { return checkpoint::Save(*opt.adam, opt.names, path); });
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  auto entries = checkpoint::Load(path);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries->size(), opt.names.size());
  for (size_t t = 0; t < opt.names.size(); ++t) {
    std::vector<float> master;
    const Status fetched = opt.adam->FetchMasterParams(opt.names[t], &master);
    ASSERT_TRUE(fetched.ok()) << opt.names[t] << ": " << fetched.ToString();
    EXPECT_EQ((*entries)[t].name, opt.names[t]);
    EXPECT_TRUE(BitwiseEqual((*entries)[t].values, master)) << opt.names[t];
  }
  EXPECT_TRUE(opt.adam->DrainAll().ok());
}

TEST(AsyncOptimTest, ErrorsSurfaceInAsyncModeToo) {
  auto engine = OpenEngine("err");
  ASSERT_TRUE(engine.ok());
  AsyncUpdateOptions opts;
  opts.async = true;
  AsyncUpdateEngine ooc(AdamConfig{}, engine->get(), opts);
  ASSERT_TRUE(ooc.Register("w", {1.0f}).ok());
  EXPECT_EQ(ooc.Register("w", {1.0f}).code(), StatusCode::kAlreadyExists);
  std::vector<Fp16> wrong(3);
  EXPECT_EQ(ooc.StepTensor("w", wrong).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ooc.StepTensor("nope", wrong).code(), StatusCode::kNotFound);
  EXPECT_EQ(ooc.DrainTensor("nope").code(), StatusCode::kNotFound);
  EXPECT_TRUE(ooc.DrainTensor("w").ok());
  EXPECT_TRUE(ooc.DrainAll().ok());
}

TEST(AsyncOptimTest, FailedRegisterRollsBackSoTheNameStaysUsable) {
  // Every write attempt fails, so Register's initial state writes give
  // up after the retry budget. The failed registration must not leave a
  // half-initialized entry behind: retrying must NOT report
  // kAlreadyExists, and the name must stay unknown to every other call.
  TransferOptions topts;
  topts.dir = TempDir("reg_rollback");
  topts.num_stripes = 2;
  topts.chunk_bytes = 4096;
  topts.fault.write_error_every = 1;
  auto engine = TransferEngine::Open(topts);
  ASSERT_TRUE(engine.ok());
  AsyncUpdateOptions opts;
  opts.async = true;
  AsyncUpdateEngine ooc(AdamConfig{}, engine->get(), opts);
  EXPECT_EQ(ooc.Register("w", {1.0f, 2.0f}).code(), StatusCode::kUnavailable);
  EXPECT_EQ(ooc.Register("w", {1.0f, 2.0f}).code(), StatusCode::kUnavailable);
  std::vector<Fp16> g(2);
  EXPECT_EQ(ooc.StepTensor("w", g).code(), StatusCode::kNotFound);
  EXPECT_EQ(ooc.DrainTensor("w").code(), StatusCode::kNotFound);
}

// ---------- Trainer integration ----------

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

std::vector<std::vector<float>> ExportAllState(RatelTrainer& trainer,
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

struct TrainerRun {
  std::vector<float> losses;
  std::vector<std::vector<float>> state;
  StepStats last;
  TransferStats xfer;
};

TrainerRun TrainSmall(const std::string& tag, bool async, int steps) {
  ag::TinyGptConfig cfg = SmallConfig();
  ag::TinyGpt model(cfg, /*seed=*/44);
  TrainerOptions opts;
  opts.store_dir = TempDir(tag);
  opts.host_cache_bytes = 1 << 20;
  opts.async_optimizer = async;
  opts.async_hot_fraction = 0.25;
  opts.async_partition_chunk = 64;
  auto trainer = RatelTrainer::Create(&model, opts);
  EXPECT_TRUE(trainer.ok()) << trainer.status().ToString();
  TrainerRun run;
  Rng rng(5);
  std::vector<int64_t> ids, targets;
  for (int step = 0; step < steps; ++step) {
    MakeBatch(rng, 2 * cfg.seq_len, cfg.vocab_size, &ids, &targets);
    auto loss = (*trainer)->TrainStep(ids, targets, /*batch=*/2);
    EXPECT_TRUE(loss.ok()) << loss.status().ToString();
    run.losses.push_back(*loss);
  }
  run.last = (*trainer)->last_step_stats();
  run.state = ExportAllState(**trainer, model);
  run.xfer = (*trainer)->transfer_stats();
  return run;
}

TEST(AsyncOptimTrainerTest, AsyncTrainingIsBitwiseTheSyncTrajectory) {
  const TrainerRun sync = TrainSmall("tr_sync", /*async=*/false, 4);
  const TrainerRun async = TrainSmall("tr_async", /*async=*/true, 4);
  ASSERT_EQ(sync.losses.size(), async.losses.size());
  for (size_t i = 0; i < sync.losses.size(); ++i) {
    EXPECT_EQ(sync.losses[i], async.losses[i]) << "step " << i;
  }
  ASSERT_EQ(sync.state.size(), async.state.size());
  for (size_t i = 0; i < sync.state.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(sync.state[i], async.state[i]))
        << "state vector " << i << " diverged";
  }
  // The async run actually pipelined: per-step stats expose the split
  // and the engine carried real kDeferredState traffic.
  EXPECT_GT(async.last.deferred_epochs, 0);
  EXPECT_GT(async.last.tail_chunks, 0);
  EXPECT_GT(async.last.hot_chunks, 0);
  EXPECT_GT(async.xfer.Flow(FlowClass::kDeferredState).bytes_written, 0);
  // The sync run is untouched by the feature.
  EXPECT_EQ(sync.last.deferred_epochs, 0);
  EXPECT_EQ(sync.last.tail_chunks, 0);
  EXPECT_EQ(sync.xfer.Flow(FlowClass::kDeferredState).bytes_written, 0);
  EXPECT_EQ(sync.last.drain_stall_s, 0.0);
  EXPECT_EQ(sync.last.optimizer_overlap_s, 0.0);
}

TEST(AsyncOptimTrainerTest, NanHotFractionFromTheEnvironmentIsRejected) {
  // atof("nan") is NaN, and the partitioner's ceil-to-int64 cast of a
  // NaN is undefined: Create must refuse it up front.
  ::setenv("RATEL_ASYNC_HOT_FRACTION", "nan", 1);
  ag::TinyGpt model(SmallConfig(), /*seed=*/44);
  TrainerOptions opts;
  opts.store_dir = TempDir("nan_hot");
  opts.async_optimizer = true;
  auto trainer = RatelTrainer::Create(&model, opts);
  ::unsetenv("RATEL_ASYNC_HOT_FRACTION");
  ASSERT_FALSE(trainer.ok());
  EXPECT_EQ(trainer.status().code(), StatusCode::kInvalidArgument);
}

// A trainer shares its engine with another tenant's async optimizer
// (the JobManager layout) and checkpoints while that tenant's
// writebacks are queued: the save must fence only its own optimizer.
TEST(AsyncOptimTrainerTest, CheckpointLeavesASharedEngineTenantHealthy) {
  ParkableOptimizer other("shared_ckpt");
  ag::TinyGpt model(SmallConfig(), /*seed=*/44);
  TrainerOptions opts;
  opts.shared_engine = other.engine->get();
  opts.tenant = 2;
  opts.key_namespace = "b/";
  auto trainer = RatelTrainer::Create(&model, opts);
  ASSERT_TRUE(trainer.ok()) << trainer.status().ToString();
  Rng rng(5);
  std::vector<int64_t> ids, targets;
  MakeBatch(rng, 2 * SmallConfig().seq_len, SmallConfig().vocab_size, &ids,
            &targets);
  ASSERT_TRUE((*trainer)->TrainStep(ids, targets, /*batch=*/2).ok());
  const Status saved = other.SaveWhileWritebacksQueued(
      [&] { return (*trainer)->SaveCheckpoint(TempDir("shared_ckpt_b")); });
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  const Status drained = other.adam->DrainAll();
  EXPECT_TRUE(drained.ok()) << drained.ToString();
}

TEST(AsyncOptimTrainerTest, CrashDuringPendingTailEpochRecoversViaCheckpoint) {
  constexpr int kTotalSteps = 5;
  constexpr int kCrashAfter = 3;
  const ag::TinyGptConfig cfg = SmallConfig();
  auto async_opts = [&](const std::string& tag) {
    TrainerOptions opts;
    opts.store_dir = TempDir(tag);
    opts.host_cache_bytes = 1 << 20;
    opts.async_optimizer = true;
    opts.async_hot_fraction = 0.25;
    opts.async_partition_chunk = 64;
    return opts;
  };

  // Reference: the async run that never crashes.
  std::vector<float> ref_losses;
  std::vector<std::vector<float>> ref_state;
  {
    ag::TinyGpt model(cfg, /*seed=*/44);
    auto trainer = RatelTrainer::Create(&model, async_opts("cr_ref"));
    ASSERT_TRUE(trainer.ok());
    Rng rng(5);
    std::vector<int64_t> ids, targets;
    for (int step = 0; step < kTotalSteps; ++step) {
      MakeBatch(rng, 2 * cfg.seq_len, cfg.vocab_size, &ids, &targets);
      auto loss = (*trainer)->TrainStep(ids, targets, 2);
      ASSERT_TRUE(loss.ok());
      ref_losses.push_back(*loss);
    }
    ref_state = ExportAllState(**trainer, model);
  }

  // Crashing run: checkpoint after step 3 (SaveCheckpoint drains every
  // pending epoch first — the barrier under test), then train one more
  // step and die while its tail epochs may still be in flight. The
  // abandoned store is lost; only the v2 checkpoint survives.
  const std::string ckpt_dir = TempDir("cr_ckpts");
  {
    ag::TinyGpt model(cfg, /*seed=*/44);
    auto trainer = RatelTrainer::Create(&model, async_opts("cr_crash"));
    ASSERT_TRUE(trainer.ok());
    Rng rng(5);
    std::vector<int64_t> ids, targets;
    for (int step = 0; step < kCrashAfter + 1; ++step) {
      MakeBatch(rng, 2 * cfg.seq_len, cfg.vocab_size, &ids, &targets);
      auto loss = (*trainer)->TrainStep(ids, targets, 2);
      ASSERT_TRUE(loss.ok());
      EXPECT_EQ(*loss, ref_losses[step]) << "pre-crash step " << step;
      if (step == kCrashAfter - 1) {
        ASSERT_TRUE((*trainer)->SaveCheckpoint(ckpt_dir).ok());
      }
    }
  }

  // Resumed run: fresh process, fresh store, async mode again.
  std::vector<float> resumed_losses;
  std::vector<std::vector<float>> resumed_state;
  {
    ag::TinyGpt model(cfg, /*seed=*/44);
    auto trainer = RatelTrainer::Create(&model, async_opts("cr_resume"));
    ASSERT_TRUE(trainer.ok());
    auto resumed_at = (*trainer)->RestoreLatestCheckpoint(ckpt_dir);
    ASSERT_TRUE(resumed_at.ok()) << resumed_at.status().ToString();
    EXPECT_EQ(*resumed_at, kCrashAfter);
    Rng rng(5);
    std::vector<int64_t> ids, targets;
    for (int step = 0; step < kCrashAfter; ++step) {
      MakeBatch(rng, 2 * cfg.seq_len, cfg.vocab_size, &ids, &targets);
    }
    for (int step = kCrashAfter; step < kTotalSteps; ++step) {
      MakeBatch(rng, 2 * cfg.seq_len, cfg.vocab_size, &ids, &targets);
      auto loss = (*trainer)->TrainStep(ids, targets, 2);
      ASSERT_TRUE(loss.ok());
      resumed_losses.push_back(*loss);
    }
    resumed_state = ExportAllState(**trainer, model);
  }

  ASSERT_EQ(resumed_losses.size(),
            static_cast<size_t>(kTotalSteps - kCrashAfter));
  for (size_t i = 0; i < resumed_losses.size(); ++i) {
    EXPECT_EQ(resumed_losses[i], ref_losses[kCrashAfter + i])
        << "post-resume step " << kCrashAfter + i;
  }
  ASSERT_EQ(resumed_state.size(), ref_state.size());
  for (size_t i = 0; i < ref_state.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(resumed_state[i], ref_state[i]))
        << "state vector " << i << " diverged";
  }
}

}  // namespace
}  // namespace ratel
