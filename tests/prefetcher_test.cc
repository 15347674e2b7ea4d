#include "runtime/prefetcher.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "tests/test_buffers.h"

namespace ratel {
namespace {

std::string TempDir(const std::string& tag) {
  return ::testing::TempDir() + "/ratel_prefetch_" + tag + "_" +
         std::to_string(::getpid());
}

// An engine holding keys k0..k<n-1>, each blob the bytes of its own key
// padded to `size` (size 0 = exactly the key's bytes).
std::unique_ptr<TransferEngine> EngineWithKeys(const std::string& tag, int n,
                                               int64_t size = 0,
                                               double read_bandwidth = 0.0) {
  TransferOptions opts;
  opts.dir = TempDir(tag);
  opts.num_stripes = 2;
  opts.chunk_bytes = 4096;
  opts.read_bandwidth = read_bandwidth;
  auto engine = TransferEngine::Open(opts);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  for (int i = 0; i < n; ++i) {
    const std::string key = "k" + std::to_string(i);
    std::vector<uint8_t> bytes(key.begin(), key.end());
    if (size > 0) bytes.resize(size);
    EXPECT_TRUE(
        (*engine)->WriteBuffer(FlowClass::kParamFetch, key, BufferOf(bytes))
            .ok());
  }
  return std::move(engine).value();
}

std::vector<Prefetcher::Request> Requests(int n, int64_t size = 0) {
  std::vector<Prefetcher::Request> requests;
  for (int i = 0; i < n; ++i) {
    Prefetcher::Request req;
    req.key = "k" + std::to_string(i);
    req.size = size > 0 ? size : static_cast<int64_t>(req.key.size());
    requests.push_back(std::move(req));
  }
  return requests;
}

TEST(PrefetcherTest, DeliversAllKeysInOrder) {
  auto engine = EngineWithKeys("order", 20);
  Prefetcher pf(engine.get(), FlowClass::kParamFetch, Requests(20), 3);
  for (int i = 0; i < 20; ++i) {
    const Prefetcher::Item item = pf.Next();
    EXPECT_EQ(item.key, "k" + std::to_string(i));
    EXPECT_TRUE(item.status.ok());
    EXPECT_EQ(std::string(item.data.begin(), item.data.end()), item.key);
  }
  EXPECT_EQ(pf.remaining(), 0);
}

TEST(PrefetcherTest, LookaheadBounded) {
  // Each gate runs right before its read is submitted, so the gates
  // passed minus the items consumed is exactly the reads in flight.
  constexpr int kDepth = 2;
  constexpr int kKeys = 12;
  auto engine = EngineWithKeys("bound", kKeys);
  int submitted = 0;
  std::vector<Prefetcher::Request> requests = Requests(kKeys);
  for (Prefetcher::Request& req : requests) {
    req.gate = [&submitted] {
      ++submitted;
      return Status::Ok();
    };
  }
  Prefetcher pf(engine.get(), FlowClass::kParamFetch, std::move(requests),
                kDepth);
  EXPECT_EQ(submitted, kDepth);
  for (int i = 0; i < kKeys; ++i) {
    const Prefetcher::Item item = pf.Next();
    EXPECT_TRUE(item.status.ok());
    // Consuming one item frees one slot: the window refills to `depth`
    // and never beyond it.
    EXPECT_EQ(submitted - (i + 1), std::min(kDepth, kKeys - (i + 1))) << i;
  }
  EXPECT_EQ(submitted, kKeys);
}

TEST(PrefetcherTest, ErrorsDeliveredPerKey) {
  auto engine = EngineWithKeys("err", 3);
  ASSERT_TRUE(engine->Delete("k1").ok());
  Prefetcher pf(engine.get(), FlowClass::kParamFetch, Requests(3), 2);
  EXPECT_TRUE(pf.Next().status.ok());
  const Prefetcher::Item bad = pf.Next();
  EXPECT_EQ(bad.key, "k1");
  EXPECT_EQ(bad.status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(pf.Next().status.ok());  // pipeline continues past errors
}

TEST(PrefetcherTest, FailingGateSurfacesAsItemStatus) {
  // The dependency gate the trainer installs on every P16 fetch: a
  // failure (a tensor's sticky write error) becomes that item's status,
  // its read is never submitted, and the other keys still arrive.
  auto engine = EngineWithKeys("gate", 3);
  std::vector<Prefetcher::Request> requests = Requests(3);
  requests[1].gate = [] { return Status::IoError("writeback failed"); };
  const int64_t reads0 = engine->stats().Flow(FlowClass::kParamFetch).reads;
  {
    Prefetcher pf(engine.get(), FlowClass::kParamFetch, std::move(requests),
                  2);
    EXPECT_TRUE(pf.Next().status.ok());
    const Prefetcher::Item gated = pf.Next();
    EXPECT_EQ(gated.key, "k1");
    EXPECT_EQ(gated.status.code(), StatusCode::kIoError);
    EXPECT_EQ(gated.data.size(), 0);
    const Prefetcher::Item last = pf.Next();
    EXPECT_TRUE(last.status.ok());
    EXPECT_EQ(std::string(last.data.begin(), last.data.end()), "k2");
  }
  EXPECT_EQ(engine->stats().Flow(FlowClass::kParamFetch).reads - reads0, 2);
}

TEST(PrefetcherTest, OverlapsFetchWithConsumption) {
  // 10 reads of 40 KB through a 4 MB/s read channel (~10 ms each) and
  // consumer work of 10 ms each: serial would take ~200 ms; a depth-4
  // pipeline should land well under 170 ms.
  constexpr int64_t kSize = 40000;
  auto engine = EngineWithKeys("overlap", 10, kSize, /*read_bandwidth=*/4e6);
  const auto t0 = std::chrono::steady_clock::now();
  Prefetcher pf(engine.get(), FlowClass::kParamFetch, Requests(10, kSize), 4);
  for (int i = 0; i < 10; ++i) {
    const Prefetcher::Item item = pf.Next();
    EXPECT_TRUE(item.status.ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));  // "compute"
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 0.17);
  EXPECT_GE(elapsed, 0.10);  // cannot beat the consumer-side floor
}

TEST(PrefetcherTest, DestructorAbandonsCleanly) {
  // Destroy with undrained items: must not hang or crash, and the
  // engine is quiet afterwards.
  auto engine = EngineWithKeys("abandon", 50);
  auto pf = std::make_unique<Prefetcher>(engine.get(), FlowClass::kParamFetch,
                                         Requests(50), 2);
  EXPECT_TRUE(pf->Next().status.ok());
  pf.reset();  // 49 keys never drained
  EXPECT_TRUE(engine->Drain().ok());
}

}  // namespace
}  // namespace ratel
