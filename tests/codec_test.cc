// Codec conformance + corruption battery (ctest label: codec).
//
// Pins the offload-codec contract at three levels: the frame format
// (round-trip exactness, CRC rejection of every single-bit flip), each
// codec's payload transform (identity, fp16 demotion, top-k sparse),
// and the TransferEngine integration (encoded-byte accounting, pooled
// frame buffers with zero steady-state allocations, the lossy-flow
// cache rule, and the planner's compression-aware SSD term).

#include "xfer/codec.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <cstring>
#include <string>
#include <vector>

#include "autograd/transformer.h"
#include "common/checksum.h"
#include "common/fp16.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/activation_planner.h"
#include "core/cost_model.h"
#include "hw/catalog.h"
#include "model/transformer_config.h"
#include "runtime/dataset.h"
#include "runtime/ratel_trainer.h"
#include "simd/simd.h"
#include "tests/test_buffers.h"
#include "xfer/transfer_engine.h"

namespace ratel {
namespace {

std::string TempDir(const std::string& tag) {
  return ::testing::TempDir() + "/ratel_codec_" + tag + "_" +
         std::to_string(::getpid());
}

std::vector<uint8_t> RandomBytes(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> data(n);
  for (auto& b : data) b = static_cast<uint8_t>(rng.NextU64());
  return data;
}

std::vector<float> RandomFloats(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.NextGaussian());
  return v;
}

std::vector<uint8_t> EncodeToFrame(const Codec& codec,
                                   const uint8_t* src, int64_t logical) {
  std::vector<uint8_t> frame(FrameSizeFor(codec, logical));
  EncodeFrame(codec, src, logical, frame.data());
  return frame;
}

std::vector<uint8_t> AsBytes(const std::vector<float>& v) {
  std::vector<uint8_t> bytes(v.size() * sizeof(float));
  std::memcpy(bytes.data(), v.data(), bytes.size());
  return bytes;
}

// ---------- Frame format ----------

TEST(CodecFrameTest, IdentityRoundTripIsExactAcrossSizes) {
  auto codec = MakeIdentityCodec();
  // Empty, one byte, odd lengths, exact float multiples, a big blob.
  for (int64_t n : {0, 1, 3, 4, 7, 4096, 4099}) {
    const std::vector<uint8_t> data = RandomBytes(n, 100 + n);
    const std::vector<uint8_t> frame =
        EncodeToFrame(*codec, data.data(), n);
    EXPECT_EQ(static_cast<int64_t>(frame.size()),
              kCodecFrameHeaderBytes + n);
    std::vector<uint8_t> out(n, 0xCC);
    ASSERT_TRUE(
        DecodeFrame(frame.data(), frame.size(), out.data(), n).ok())
        << "n=" << n;
    EXPECT_EQ(out, data) << "n=" << n;
  }
}

TEST(CodecFrameTest, CheckFrameParsesTheHeaderItWrote) {
  auto codec = MakeFp16Codec();
  const std::vector<uint8_t> data = RandomBytes(130, 7);  // 32 floats + 2 tail
  const std::vector<uint8_t> frame =
      EncodeToFrame(*codec, data.data(), data.size());
  auto info = CheckFrame(frame.data(), frame.size());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->codec, CodecId::kFp16);
  EXPECT_EQ(info->logical_bytes, 130);
  EXPECT_EQ(info->payload_bytes,
            static_cast<int64_t>(frame.size()) - kCodecFrameHeaderBytes);
}

TEST(CodecFrameTest, SingleBitFlipAtEveryByteOffsetIsRejected) {
  // The anti-silent-garbage guarantee: flip one bit in *every* byte of
  // a small frame — header and payload alike — and the frame must fail
  // verification with kDataLoss each time. No offset may slip through.
  auto codec = MakeIdentityCodec();
  const std::vector<uint8_t> data = RandomBytes(24, 41);
  const std::vector<uint8_t> frame =
      EncodeToFrame(*codec, data.data(), data.size());
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(
      DecodeFrame(frame.data(), frame.size(), out.data(), data.size()).ok());

  for (size_t offset = 0; offset < frame.size(); ++offset) {
    for (int bit : {0, 3, 7}) {
      std::vector<uint8_t> corrupt = frame;
      corrupt[offset] ^= static_cast<uint8_t>(1u << bit);
      const Status s = DecodeFrame(corrupt.data(), corrupt.size(),
                                   out.data(), data.size());
      EXPECT_EQ(s.code(), StatusCode::kDataLoss)
          << "flip at byte " << offset << " bit " << bit
          << " decoded silently";
    }
  }
}

TEST(CodecFrameTest, TruncationAndWrongLogicalSizeAreRejected) {
  auto codec = MakeIdentityCodec();
  const std::vector<uint8_t> data = RandomBytes(64, 5);
  const std::vector<uint8_t> frame = EncodeToFrame(*codec, data.data(), 64);
  std::vector<uint8_t> out(64);
  // Torn prefix: every truncation point fails, including mid-header.
  for (int64_t cut : {0, 1, 16, 31, 32, 40, 95}) {
    EXPECT_EQ(DecodeFrame(frame.data(), cut, out.data(), 64).code(),
              StatusCode::kDataLoss)
        << "cut=" << cut;
  }
  // A reader expecting a different logical size must not get bytes.
  EXPECT_EQ(DecodeFrame(frame.data(), frame.size(), out.data(), 63).code(),
            StatusCode::kDataLoss);
}

// ---------- fp16 codec ----------

TEST(Fp16CodecTest, HalfRepresentableValuesRoundTripExactly) {
  auto codec = MakeFp16Codec();
  // Every value here is exactly representable in binary16, so the
  // demotion must be bit-exact after promotion back to float32.
  const std::vector<float> vals = {0.0f,   -0.0f, 1.0f,    -1.0f,  0.5f,
                                   2.0f,   1024.0f, -65504.0f, 0.25f,
                                   -0.125f, 3.5f,  0.0999755859375f};
  const std::vector<uint8_t> bytes = AsBytes(vals);
  const std::vector<uint8_t> frame =
      EncodeToFrame(*codec, bytes.data(), bytes.size());
  // 2 bytes per float + header: the advertised 2x demotion.
  EXPECT_EQ(static_cast<int64_t>(frame.size()),
            kCodecFrameHeaderBytes +
                static_cast<int64_t>(vals.size()) * 2);
  std::vector<float> out(vals.size());
  ASSERT_TRUE(DecodeFrame(frame.data(), frame.size(),
                          reinterpret_cast<uint8_t*>(out.data()),
                          bytes.size())
                  .ok());
  for (size_t i = 0; i < vals.size(); ++i) {
    EXPECT_EQ(out[i], vals[i]) << "value " << i << " not half-exact";
  }
  // Signed zero survives with its sign bit.
  EXPECT_TRUE(std::signbit(out[1]));
  EXPECT_FALSE(std::signbit(out[0]));
}

TEST(Fp16CodecTest, OddLengthTailRidesAlongVerbatim) {
  auto codec = MakeFp16Codec();
  // 5 floats + 3 trailing bytes that are not a whole float.
  std::vector<uint8_t> bytes = AsBytes({1.0f, -2.0f, 0.5f, 4.0f, -8.0f});
  bytes.push_back(0xAB);
  bytes.push_back(0xCD);
  bytes.push_back(0xEF);
  const std::vector<uint8_t> frame =
      EncodeToFrame(*codec, bytes.data(), bytes.size());
  EXPECT_EQ(static_cast<int64_t>(frame.size()),
            kCodecFrameHeaderBytes + 5 * 2 + 3);
  std::vector<uint8_t> out(bytes.size());
  ASSERT_TRUE(
      DecodeFrame(frame.data(), frame.size(), out.data(), bytes.size()).ok());
  EXPECT_EQ(out[out.size() - 3], 0xAB);
  EXPECT_EQ(out[out.size() - 2], 0xCD);
  EXPECT_EQ(out[out.size() - 1], 0xEF);
}

TEST(Fp16CodecTest, EmptyAndSingleElementTensors) {
  auto codec = MakeFp16Codec();
  {
    const std::vector<uint8_t> frame = EncodeToFrame(*codec, nullptr, 0);
    EXPECT_EQ(static_cast<int64_t>(frame.size()), kCodecFrameHeaderBytes);
    ASSERT_TRUE(DecodeFrame(frame.data(), frame.size(), nullptr, 0).ok());
  }
  {
    const float v = 0.75f;  // half-exact
    const std::vector<uint8_t> frame = EncodeToFrame(
        *codec, reinterpret_cast<const uint8_t*>(&v), sizeof(v));
    float out = 0.0f;
    ASSERT_TRUE(DecodeFrame(frame.data(), frame.size(),
                            reinterpret_cast<uint8_t*>(&out), sizeof(out))
                    .ok());
    EXPECT_EQ(out, v);
  }
}

TEST(Fp16CodecTest, MatchesScalarHalfConversionOnRandomData) {
  auto codec = MakeFp16Codec();
  const std::vector<float> vals = RandomFloats(257, 19);
  const std::vector<uint8_t> bytes = AsBytes(vals);
  const std::vector<uint8_t> frame =
      EncodeToFrame(*codec, bytes.data(), bytes.size());
  std::vector<float> out(vals.size());
  ASSERT_TRUE(DecodeFrame(frame.data(), frame.size(),
                          reinterpret_cast<uint8_t*>(out.data()),
                          bytes.size())
                  .ok());
  for (size_t i = 0; i < vals.size(); ++i) {
    // The codec is exactly FloatToHalf -> HalfToFloat, nothing fancier.
    EXPECT_EQ(out[i], HalfToFloat(FloatToHalf(vals[i]))) << i;
  }
}

// Every backend that can run on this host.
std::vector<simd::Mode> RunnableSimdModes() {
  std::vector<simd::Mode> modes = {simd::Mode::kScalar};
  if (simd::HostHasAvx2()) modes.push_back(simd::Mode::kAvx2);
  return modes;
}

float FromBits(uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

TEST(Fp16CodecTest, SimdCodecIsBitwiseTheScalarLoopForEveryNonNaN) {
  // Inputs that exercise every rounding path of the demotion: every
  // non-NaN half widened (exact), the exact midpoint above each finite
  // half (round-to-nearest-even ties, including the subnormal range and
  // the 65520 overflow tie), fp32 subnormals, the infinities and random
  // non-NaN bit patterns.
  std::vector<float> vals;
  std::vector<Fp16> halves;
  for (uint32_t h = 0; h < 0x10000; ++h) {
    const Fp16 half = static_cast<Fp16>(h);
    if ((h & 0x7C00u) == 0x7C00u && (h & 0x3FFu) != 0) continue;  // NaN
    halves.push_back(half);
    const float value = HalfToFloat(half);
    vals.push_back(value);
    if ((h & 0x7FFFu) < 0x7C00u) {
      const float next = (h & 0x7FFFu) == 0x7BFFu
                             ? std::copysign(65536.0f, value)
                             : HalfToFloat(static_cast<Fp16>(h + 1));
      vals.push_back(value + (next - value) / 2);
    }
  }
  for (uint32_t bits : {0x00000001u, 0x007FFFFFu, 0x80000001u, 0x00400000u}) {
    vals.push_back(FromBits(bits));
  }
  vals.push_back(std::numeric_limits<float>::infinity());
  vals.push_back(-std::numeric_limits<float>::infinity());
  Rng rng(77);
  while (vals.size() < 300000) {
    const float v = FromBits(static_cast<uint32_t>(rng.NextU64()));
    if (!std::isnan(v)) vals.push_back(v);
  }
  const std::vector<uint8_t> bytes = AsBytes(vals);
  std::vector<float> half_floats(halves.size());
  for (size_t i = 0; i < halves.size(); ++i) {
    half_floats[i] = HalfToFloat(halves[i]);
  }
  const std::vector<uint8_t> half_bytes = AsBytes(half_floats);

  auto codec = MakeFp16Codec();
  const simd::Mode saved = simd::ActiveMode();
  for (simd::Mode mode : RunnableSimdModes()) {
    SCOPED_TRACE(simd::ModeName(mode));
    ASSERT_TRUE(simd::SetMode(mode));
    // Encode: the payload is exactly the scalar FloatToHalf loop.
    const std::vector<uint8_t> frame =
        EncodeToFrame(*codec, bytes.data(), bytes.size());
    const uint8_t* payload = frame.data() + kCodecFrameHeaderBytes;
    for (size_t i = 0; i < vals.size(); ++i) {
      Fp16 got;
      std::memcpy(&got, payload + 2 * i, sizeof(got));
      ASSERT_EQ(got, FloatToHalf(vals[i])) << "value bits " << std::hex
                                           << std::bit_cast<uint32_t>(vals[i]);
    }
    // Decode: every non-NaN half widens exactly as HalfToFloat does.
    const std::vector<uint8_t> half_frame =
        EncodeToFrame(*codec, half_bytes.data(), half_bytes.size());
    std::vector<float> out(halves.size());
    ASSERT_TRUE(DecodeFrame(half_frame.data(), half_frame.size(),
                            reinterpret_cast<uint8_t*>(out.data()),
                            half_bytes.size())
                    .ok());
    for (size_t i = 0; i < halves.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint32_t>(out[i]),
                std::bit_cast<uint32_t>(HalfToFloat(halves[i])))
          << "half " << std::hex << halves[i];
    }
  }
  simd::SetMode(saved);
}

// ---------- CRC-32C under every frame ----------

TEST(Crc32cTest, DispatchedPathMatchesTheReferenceTable) {
  // Random lengths (across the 8-byte word loop and its byte tails),
  // start offsets (every alignment of the head) and chained seeds.
  const std::vector<uint8_t> data = RandomBytes(4096 + 64, 31);
  Rng rng(32);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t offset = rng.NextBelow(16);
    const size_t size = trial < 64 ? static_cast<size_t>(trial)
                                   : rng.NextBelow(4096 + 1);
    const uint32_t seed = trial % 3 == 0 ? 0u
                                         : static_cast<uint32_t>(rng.NextU64());
    ASSERT_EQ(Crc32c(data.data() + offset, size, seed),
              Crc32cReference(data.data() + offset, size, seed))
        << "offset " << offset << " size " << size << " seed " << seed;
  }
  EXPECT_EQ(Crc32cReference("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

// ---------- top-k codec ----------

TEST(TopKCodecTest, IndicesAreStrictlyAscendingAndInRange) {
  const int64_t k = 8;
  auto codec = MakeTopKCodec(k);
  const std::vector<float> vals = RandomFloats(100, 23);
  const std::vector<uint8_t> bytes = AsBytes(vals);
  const std::vector<uint8_t> frame =
      EncodeToFrame(*codec, bytes.data(), bytes.size());
  // Payload: k (index, value) pairs of 8 bytes each.
  EXPECT_EQ(static_cast<int64_t>(frame.size()),
            kCodecFrameHeaderBytes + k * 8);
  const uint8_t* payload = frame.data() + kCodecFrameHeaderBytes;
  uint32_t prev = 0;
  for (int64_t i = 0; i < k; ++i) {
    uint32_t index;
    std::memcpy(&index, payload + i * 8, sizeof(index));
    if (i > 0) {
      EXPECT_GT(index, prev) << "pair " << i << " not ascending";
    }
    EXPECT_LT(index, vals.size());
    prev = index;
  }
}

TEST(TopKCodecTest, DenseReconstructionKeepsLargestAndZeroFillsRest) {
  const int64_t k = 4;
  auto codec = MakeTopKCodec(k);
  // Hand-built magnitudes: the top-4 by |value| are at 1, 3, 6, 9.
  const std::vector<float> vals = {0.1f, -9.0f, 0.2f, 7.5f, -0.3f,
                                   0.4f, 8.25f, -0.5f, 0.6f, -7.75f};
  const std::vector<uint8_t> bytes = AsBytes(vals);
  const std::vector<uint8_t> frame =
      EncodeToFrame(*codec, bytes.data(), bytes.size());
  std::vector<float> out(vals.size(), 42.0f);
  ASSERT_TRUE(DecodeFrame(frame.data(), frame.size(),
                          reinterpret_cast<uint8_t*>(out.data()),
                          bytes.size())
                  .ok());
  for (size_t i = 0; i < vals.size(); ++i) {
    if (i == 1 || i == 3 || i == 6 || i == 9) {
      EXPECT_EQ(out[i], vals[i]) << "kept value " << i << " not exact";
    } else {
      EXPECT_EQ(out[i], 0.0f) << "dropped value " << i << " not zeroed";
    }
  }
}

TEST(TopKCodecTest, KLargerThanTensorKeepsEverythingExactly) {
  auto codec = MakeTopKCodec(1000);
  const std::vector<float> vals = RandomFloats(10, 31);
  const std::vector<uint8_t> bytes = AsBytes(vals);
  const std::vector<uint8_t> frame =
      EncodeToFrame(*codec, bytes.data(), bytes.size());
  // Only min(k, n) pairs are stored.
  EXPECT_EQ(static_cast<int64_t>(frame.size()),
            kCodecFrameHeaderBytes + 10 * 8);
  std::vector<float> out(vals.size());
  ASSERT_TRUE(DecodeFrame(frame.data(), frame.size(),
                          reinterpret_cast<uint8_t*>(out.data()),
                          bytes.size())
                  .ok());
  EXPECT_EQ(0, std::memcmp(out.data(), vals.data(),
                           vals.size() * sizeof(float)));
}

TEST(TopKCodecTest, EmptySingleElementAndOddLengthTensors) {
  auto codec = MakeTopKCodec(3);
  {
    const std::vector<uint8_t> frame = EncodeToFrame(*codec, nullptr, 0);
    ASSERT_TRUE(DecodeFrame(frame.data(), frame.size(), nullptr, 0).ok());
  }
  {
    const float v = -2.5f;
    const std::vector<uint8_t> frame = EncodeToFrame(
        *codec, reinterpret_cast<const uint8_t*>(&v), sizeof(v));
    float out = 0.0f;
    ASSERT_TRUE(DecodeFrame(frame.data(), frame.size(),
                            reinterpret_cast<uint8_t*>(&out), sizeof(out))
                    .ok());
    EXPECT_EQ(out, v);  // 1 element, k=3: kept exactly
  }
  {
    // 2 floats + 1 tail byte; tail must survive even with k pruning.
    std::vector<uint8_t> bytes = AsBytes({5.0f, -0.001f});
    bytes.push_back(0x5A);
    const std::vector<uint8_t> frame =
        EncodeToFrame(*codec, bytes.data(), bytes.size());
    std::vector<uint8_t> out(bytes.size());
    ASSERT_TRUE(DecodeFrame(frame.data(), frame.size(), out.data(),
                            bytes.size())
                    .ok());
    EXPECT_EQ(out.back(), 0x5A);
    float f0, f1;
    std::memcpy(&f0, out.data(), 4);
    std::memcpy(&f1, out.data() + 4, 4);
    EXPECT_EQ(f0, 5.0f);
    EXPECT_EQ(f1, -0.001f);
  }
}

// ---------- Spec parsing, registry, env overlay ----------

TEST(CodecSpecTest, RawSpecsYieldNoCodec) {
  for (const char* spec : {"", "raw", "off", "none"}) {
    auto codec = MakeCodec(spec);
    ASSERT_TRUE(codec.ok()) << spec;
    EXPECT_EQ(*codec, nullptr) << spec;
  }
}

TEST(CodecSpecTest, NamedSpecsYieldTheRightCodec) {
  auto identity = MakeCodec("identity");
  ASSERT_TRUE(identity.ok());
  ASSERT_NE(*identity, nullptr);
  EXPECT_EQ((*identity)->id(), CodecId::kIdentity);
  EXPECT_TRUE((*identity)->lossless());

  auto fp16 = MakeCodec("fp16");
  ASSERT_TRUE(fp16.ok());
  ASSERT_NE(*fp16, nullptr);
  EXPECT_EQ((*fp16)->id(), CodecId::kFp16);
  EXPECT_FALSE((*fp16)->lossless());

  auto topk = MakeCodec("topk:16");
  ASSERT_TRUE(topk.ok());
  ASSERT_NE(*topk, nullptr);
  EXPECT_EQ((*topk)->id(), CodecId::kTopK);
  EXPECT_FALSE((*topk)->lossless());
}

TEST(CodecSpecTest, BadSpecsAreInvalidArgument) {
  for (const char* spec :
       {"gzip", "topk", "topk:", "topk:0", "topk:-3", "topk:abc",
        "identity "}) {
    auto codec = MakeCodec(spec);
    EXPECT_FALSE(codec.ok()) << spec;
    EXPECT_EQ(codec.status().code(), StatusCode::kInvalidArgument) << spec;
  }
}

TEST(CodecSpecTest, RegistryCreateNamesTheBadFlow) {
  CodecConfig config;
  config.spec(FlowClass::kGradState) = "topk:0";
  auto registry = CodecRegistry::Create(config);
  ASSERT_FALSE(registry.ok());
  EXPECT_EQ(registry.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(registry.status().message().find("grad_state"),
            std::string::npos)
      << registry.status().message();
}

TEST(CodecSpecTest, EnvKnobsOverlayOntoBaseConfig) {
  ::setenv("RATEL_CODEC_ACTIVATION_SPILL", "fp16", 1);
  ::setenv("RATEL_CODEC_GRAD_STATE", "topk:32", 1);
  CodecConfig base;
  base.spec(FlowClass::kCheckpoint) = "identity";  // no knob: must survive
  const CodecConfig cfg = CodecConfig::FromEnv(base);
  ::unsetenv("RATEL_CODEC_ACTIVATION_SPILL");
  ::unsetenv("RATEL_CODEC_GRAD_STATE");

  EXPECT_EQ(cfg.spec(FlowClass::kActivationSpill), "fp16");
  EXPECT_EQ(cfg.spec(FlowClass::kGradState), "topk:32");
  EXPECT_EQ(cfg.spec(FlowClass::kCheckpoint), "identity");
  EXPECT_EQ(cfg.spec(FlowClass::kParamFetch), "");
  EXPECT_TRUE(cfg.any());
  EXPECT_FALSE(CodecConfig{}.any());
}

TEST(CodecSpecTest, ExpectedCompressionRatioMatchesFrameSizes) {
  auto fp16 = MakeFp16Codec();
  // Big blob: ratio approaches 2x; the 32-byte header is the only drag.
  const int64_t big = 1 << 20;
  EXPECT_NEAR(ExpectedCompressionRatio(*fp16, big), 2.0, 0.01);
  EXPECT_DOUBLE_EQ(
      ExpectedCompressionRatio(*fp16, big),
      static_cast<double>(big) /
          static_cast<double>(FrameSizeFor(*fp16, big)));
  // Tiny blob: framing overhead can push the ratio below 1.
  EXPECT_LT(ExpectedCompressionRatio(*fp16, 8), 1.0);
  EXPECT_DOUBLE_EQ(ExpectedCompressionRatio(*fp16, 0), 1.0);
}

// ---------- Engine integration ----------

TransferOptions EngineOptions(const std::string& dir) {
  TransferOptions opts;
  opts.dir = dir;
  opts.num_stripes = 4;
  opts.chunk_bytes = 4096;
  opts.io_workers = 2;
  return opts;
}

TEST(CodecEngineTest, OpenRejectsBadCodecSpec) {
  TransferOptions opts = EngineOptions(TempDir("badspec"));
  opts.codec.spec(FlowClass::kActivationSpill) = "lz4";
  auto engine = TransferEngine::Open(opts);
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(CodecEngineTest, IdentityCodecRoundTripsWithFrameAccounting) {
  TransferOptions opts = EngineOptions(TempDir("id_acct"));
  opts.codec.spec(FlowClass::kCheckpoint) = "identity";
  auto engine = TransferEngine::Open(opts);
  ASSERT_TRUE(engine.ok());

  const int64_t kBytes = 3 * 4096 + 17;
  const int kBlobs = 4;
  auto identity = MakeIdentityCodec();
  const int64_t frame_bytes = FrameSizeFor(*identity, kBytes);
  for (int i = 0; i < kBlobs; ++i) {
    const std::vector<uint8_t> data = RandomBytes(kBytes, 500 + i);
    const std::string key = "ck/" + std::to_string(i);
    ASSERT_TRUE(
        (*engine)->WriteBuffer(FlowClass::kCheckpoint, key, BufferOf(data))
            .ok());
    auto out = (*engine)->ReadBuffer(FlowClass::kCheckpoint, key, kBytes);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(VectorOf(*out), data) << "blob " << i;
  }

  const TransferStats stats = (*engine)->stats();
  const FlowCounters& c = stats.Flow(FlowClass::kCheckpoint);
  // Logical counters stay logical; encoded counters carry the framing.
  EXPECT_EQ(c.bytes_written, kBlobs * kBytes);
  EXPECT_EQ(c.bytes_read, kBlobs * kBytes);
  EXPECT_EQ(c.encoded_bytes_written, kBlobs * frame_bytes);
  EXPECT_EQ(c.encoded_bytes_read, kBlobs * frame_bytes);
  EXPECT_EQ(c.encodes, kBlobs);
  EXPECT_EQ(c.decodes, kBlobs);
  EXPECT_EQ(c.decode_failures, 0);
  EXPECT_EQ(c.errors, 0);
  // Identity framing *adds* header bytes: ratio just under 1 — and it
  // reconciles exactly against the raw counters.
  EXPECT_DOUBLE_EQ(c.WriteCompressionRatio(),
                   static_cast<double>(c.bytes_written) /
                       static_cast<double>(c.encoded_bytes_written));
  // The store saw frames, not logical blobs.
  EXPECT_EQ(stats.store_bytes_written, kBlobs * frame_bytes);
  EXPECT_EQ(stats.store_bytes_read, kBlobs * frame_bytes);
}

TEST(CodecEngineTest, Fp16FlowHalvesStoreBytes) {
  TransferOptions opts = EngineOptions(TempDir("fp16_bytes"));
  opts.codec.spec(FlowClass::kActivationSpill) = "fp16";
  auto engine = TransferEngine::Open(opts);
  ASSERT_TRUE(engine.ok());

  const int64_t kFloats = 4096;
  const int64_t kBytes = kFloats * 4;
  const std::vector<float> vals = RandomFloats(kFloats, 77);
  ASSERT_TRUE(
      (*engine)->WriteBuffer(FlowClass::kActivationSpill, "act", BufferOf(vals))
          .ok());
  auto read = (*engine)->ReadBuffer(FlowClass::kActivationSpill, "act", kBytes);
  ASSERT_TRUE(read.ok());
  const std::vector<float> out = VectorOf<float>(*read);
  // The reader observes exactly the demoted values.
  for (int64_t i = 0; i < kFloats; ++i) {
    ASSERT_EQ(out[i], HalfToFloat(FloatToHalf(vals[i]))) << i;
  }

  const TransferStats stats = (*engine)->stats();
  const FlowCounters& c = stats.Flow(FlowClass::kActivationSpill);
  EXPECT_EQ(c.bytes_written, kBytes);
  EXPECT_EQ(c.encoded_bytes_written, kBytes / 2 + kCodecFrameHeaderBytes);
  EXPECT_GT(c.WriteCompressionRatio(), 1.9);
  EXPECT_GT(c.encode_seconds, 0.0);
  EXPECT_GT(c.decode_seconds, 0.0);
}

TEST(CodecEngineTest, LossyCodecSkipsWriteSideCacheAdmit) {
  // The lossy cache rule: a reader must observe decode(encode(x)) no
  // matter whether the blob was still DRAM-resident — so the write-side
  // admit is skipped for lossy codecs and the first read is a store
  // miss. The decoded bytes may then be promoted (re-reading them is
  // consistent), making the *second* read a hit with identical bytes.
  TransferOptions opts = EngineOptions(TempDir("lossy_cache"));
  opts.host_cache_bytes = 1 << 20;
  opts.codec.spec(FlowClass::kActivationSpill) = "fp16";
  auto engine = TransferEngine::Open(opts);
  ASSERT_TRUE(engine.ok());

  const int64_t kFloats = 512;
  const int64_t kBytes = kFloats * 4;
  const std::vector<float> vals = RandomFloats(kFloats, 91);
  ASSERT_TRUE(
      (*engine)->WriteBuffer(FlowClass::kActivationSpill, "act", BufferOf(vals))
          .ok());

  auto first_read =
      (*engine)->ReadBuffer(FlowClass::kActivationSpill, "act", kBytes);
  ASSERT_TRUE(first_read.ok());
  auto second_read =
      (*engine)->ReadBuffer(FlowClass::kActivationSpill, "act", kBytes);
  ASSERT_TRUE(second_read.ok());
  const std::vector<float> first = VectorOf<float>(*first_read);
  const std::vector<float> second = VectorOf<float>(*second_read);
  const TransferStats stats = (*engine)->stats();
  const FlowCounters& c = stats.Flow(FlowClass::kActivationSpill);
  EXPECT_EQ(c.cache_misses, 1);  // write-side admit was skipped
  EXPECT_EQ(c.cache_hits, 1);    // promotion-after-decode served read 2
  for (int64_t i = 0; i < kFloats; ++i) {
    const float expect = HalfToFloat(FloatToHalf(vals[i]));
    ASSERT_EQ(first[i], expect) << i;
    ASSERT_EQ(second[i], expect) << i;
  }

  // Contrast: a *lossless* framed flow still admits at write time.
  const std::vector<uint8_t> blob = RandomBytes(kBytes, 92);
  TransferOptions opts2 = EngineOptions(TempDir("lossless_cache"));
  opts2.host_cache_bytes = 1 << 20;
  opts2.codec.spec(FlowClass::kCheckpoint) = "identity";
  auto engine2 = TransferEngine::Open(opts2);
  ASSERT_TRUE(engine2.ok());
  ASSERT_TRUE(
      (*engine2)->WriteBuffer(FlowClass::kCheckpoint, "ck", BufferOf(blob))
          .ok());
  auto out = (*engine2)->ReadBuffer(FlowClass::kCheckpoint, "ck", kBytes);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(VectorOf(*out), blob);
  const TransferStats stats2 = (*engine2)->stats();
  EXPECT_EQ(stats2.Flow(FlowClass::kCheckpoint).cache_hits, 1);
}

TEST(CodecEngineTest, LossyOverwriteInvalidatesThePromotedCacheEntry) {
  // The other half of the lossy cache rule: reading a lossy key
  // promotes its *decoded* bytes into the DRAM tier, so overwriting
  // that key must invalidate the promoted entry — otherwise every
  // later read would serve the previous value from DRAM. This is
  // exactly the trainer's spill pattern: the same "act/i" keys are
  // rewritten every step and read back within the step.
  TransferOptions opts = EngineOptions(TempDir("lossy_overwrite"));
  opts.host_cache_bytes = 1 << 20;
  opts.codec.spec(FlowClass::kActivationSpill) = "fp16";
  auto engine = TransferEngine::Open(opts);
  ASSERT_TRUE(engine.ok());

  const int64_t kFloats = 512;
  const int64_t kBytes = kFloats * 4;
  for (int step = 0; step < 3; ++step) {
    const std::vector<float> vals = RandomFloats(kFloats, 700 + step);
    ASSERT_TRUE((*engine)
                    ->WriteBuffer(FlowClass::kActivationSpill, "act",
                                  BufferOf(vals))
                    .ok());
    // Read twice: the first decodes this step's frame from the store
    // (the overwrite dropped the previous step's promoted entry), the
    // second may hit the fresh promotion — both must deliver *this*
    // step's demoted values.
    for (int pass = 0; pass < 2; ++pass) {
      SCOPED_TRACE("step " + std::to_string(step) + " pass " +
                   std::to_string(pass));
      auto read =
          (*engine)->ReadBuffer(FlowClass::kActivationSpill, "act", kBytes);
      ASSERT_TRUE(read.ok());
      const std::vector<float> out = VectorOf<float>(*read);
      for (int64_t i = 0; i < kFloats; ++i) {
        ASSERT_EQ(out[i], HalfToFloat(FloatToHalf(vals[i]))) << i;
      }
    }
  }
  const TransferStats stats = (*engine)->stats();
  const FlowCounters& c = stats.Flow(FlowClass::kActivationSpill);
  EXPECT_EQ(c.cache_misses, 3);  // one store decode per overwrite
  EXPECT_EQ(c.cache_hits, 3);    // one promoted hit per overwrite
  EXPECT_EQ(c.decodes, 3);
}

TEST(CodecEngineTest, PooledFrameBuffersReachZeroSteadyStateAllocs) {
  // The zero-copy acceptance criterion extended to codec frames: after
  // a warmup round populates the pool's size classes, further codec
  // writes and reads lease every frame and every decode destination
  // from the free lists — the allocation counter must not move.
  TransferOptions opts = EngineOptions(TempDir("pool"));
  opts.codec.spec(FlowClass::kActivationSpill) = "fp16";
  auto engine = TransferEngine::Open(opts);
  ASSERT_TRUE(engine.ok());

  const int64_t kBytes = 16 * 1024;
  std::vector<uint8_t> data = RandomBytes(kBytes, 11);
  auto round = [&](int i) {
    const std::string key = "act/" + std::to_string(i % 2);
    // Payloads are staged in pooled buffers too, as the trainer does.
    Buffer payload = (*engine)->buffer_pool().Lease(kBytes);
    std::memcpy(payload.mutable_data(), data.data(), kBytes);
    ASSERT_TRUE((*engine)
                    ->WriteBuffer(FlowClass::kActivationSpill, key,
                                  std::move(payload))
                    .ok());
    ASSERT_TRUE(
        (*engine)->ReadBuffer(FlowClass::kActivationSpill, key, kBytes).ok());
  };
  for (int i = 0; i < 4; ++i) round(i);  // warmup: classes populate
  ASSERT_TRUE((*engine)->Drain().ok());
  const BufferPool::Stats warm = (*engine)->buffer_pool().stats();
  for (int i = 0; i < 16; ++i) round(i);
  ASSERT_TRUE((*engine)->Drain().ok());
  const BufferPool::Stats steady = (*engine)->buffer_pool().stats();
  EXPECT_EQ(steady.allocations, warm.allocations)
      << "codec path allocated in steady state";
  EXPECT_GT(steady.reuses, warm.reuses);
}

TEST(CodecEngineTest, BufferReadOverloadDecodesThroughTheCodecPath) {
  TransferOptions opts = EngineOptions(TempDir("bufread"));
  opts.codec.spec(FlowClass::kGradState) = "identity";
  auto engine = TransferEngine::Open(opts);
  ASSERT_TRUE(engine.ok());
  const int64_t kBytes = 2048;
  const std::vector<uint8_t> data = RandomBytes(kBytes, 13);
  ASSERT_TRUE(
      (*engine)->WriteBuffer(FlowClass::kGradState, "g", BufferOf(data)).ok());
  auto buf = (*engine)->ReadBuffer(FlowClass::kGradState, "g", kBytes);
  ASSERT_TRUE(buf.ok());
  ASSERT_EQ(buf->size(), kBytes);
  EXPECT_EQ(0, std::memcmp(buf->data(), data.data(), kBytes));
  // Zero-copy delivery: the decoded buffer is handed out by reference.
  const TransferStats stats = (*engine)->stats();
  const FlowCounters& c = stats.Flow(FlowClass::kGradState);
  EXPECT_EQ(c.decodes, 1);
  EXPECT_EQ(c.decode_failures, 0);
}

// ---------- Planner integration ----------

TEST(CodecPlannerTest, CompressionRatioShrinksTheSsdTermOnly) {
  auto cfg = LlmFromTableIV("13B");
  ASSERT_TRUE(cfg.ok());
  const WorkloadProfile wl = WorkloadProfile::Build(*cfg, 32);
  const ServerConfig server =
      catalog::EvaluationServer(catalog::Rtx4090(), 768 * kGiB, 12);
  auto hw = HardwareProfiler(server).Profile(wl);
  ASSERT_TRUE(hw.ok());
  CostModel cm(*hw, wl);

  const double overflow = static_cast<double>(hw->mem_avail_m) + 8e9;
  ASSERT_DOUBLE_EQ(cm.SsdActivationBytes(overflow), 8e9);
  cm.SetActivationCompressionRatio(2.0);
  EXPECT_DOUBLE_EQ(cm.SsdActivationBytes(overflow), 4e9);
  // Below the memory watermark nothing spills either way.
  EXPECT_DOUBLE_EQ(cm.SsdActivationBytes(1.0), 0.0);
  EXPECT_DOUBLE_EQ(cm.activation_compression_ratio(), 2.0);
}

TEST(CodecPlannerTest, PlannerSwapsAtLeastAsMuchUnderCompression) {
  // Halving the SSD leg of the spill flow can only make swapping
  // cheaper: Algorithm 1's inflection point moves to swap >= as many
  // activation bytes, and the predicted iteration time cannot get
  // worse. On a memory-tight profile the SSD term binds, so the plan
  // actually changes.
  auto cfg = LlmFromTableIV("30B");
  ASSERT_TRUE(cfg.ok());
  const WorkloadProfile wl = WorkloadProfile::Build(*cfg, 32);
  const ServerConfig server =
      catalog::EvaluationServer(catalog::Rtx4090(), 256 * kGiB, 2);
  auto hw = HardwareProfiler(server).Profile(wl);
  ASSERT_TRUE(hw.ok());

  CostModel raw(*hw, wl);
  const ActivationPlan plan_raw = ActivationPlanner(raw).Plan();

  CostModel compressed(*hw, wl);
  auto fp16 = MakeFp16Codec();
  compressed.SetActivationCompressionRatio(
      ExpectedCompressionRatio(*fp16, 64 << 20));
  const ActivationPlan plan_fp16 = ActivationPlanner(compressed).Plan();

  EXPECT_GE(plan_fp16.a_g2m, plan_raw.a_g2m);
  EXPECT_LE(plan_fp16.predicted_iter_time,
            plan_raw.predicted_iter_time + 1e-9);
  // Algorithm 1 still matches the exhaustive reference under the
  // modified cost surface (convexity is preserved by a constant
  // positive scale on one max() term).
  const ActivationPlan exhaustive =
      ActivationPlanner(compressed).PlanByExhaustiveSearch();
  EXPECT_EQ(plan_fp16.a_g2m, exhaustive.a_g2m);
}

// ---------- Trainer lossy-flow rule ----------

TEST(CodecTrainerTest, LossyCodecRejectedOffTheActivationFlow) {
  ag::TinyGptConfig cfg;
  cfg.vocab_size = 32;
  cfg.seq_len = 8;
  cfg.hidden_dim = 16;
  cfg.num_heads = 2;
  cfg.num_layers = 2;
  ag::TinyGpt model(cfg, 71);
  TrainerOptions opts;
  opts.store_dir = TempDir("lossy_rule");
  opts.codec.spec(FlowClass::kGradState) = "fp16";
  auto trainer = RatelTrainer::Create(&model, opts);
  ASSERT_FALSE(trainer.ok());
  EXPECT_EQ(trainer.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(trainer.status().message().find("grad_state"),
            std::string::npos);
}

ag::TinyGptConfig CodecTrainerConfig() {
  ag::TinyGptConfig cfg;
  cfg.vocab_size = 32;
  cfg.seq_len = 8;
  cfg.hidden_dim = 16;
  cfg.num_heads = 2;
  cfg.num_layers = 2;
  return cfg;
}

TEST(CodecTrainerTest, ModelStateFlowsMustShareOneCodec) {
  // param_fetch, grad_state, deferred_state and checkpoint read and
  // write the same P32/moment blobs: a framed reader of a raw blob (or
  // the reverse) would fail its size check at the first step, so Create
  // rejects any disagreement up front and names the odd flow out.
  for (FlowClass flow : {FlowClass::kParamFetch, FlowClass::kGradState,
                         FlowClass::kDeferredState, FlowClass::kCheckpoint}) {
    SCOPED_TRACE(FlowClassName(flow));
    ag::TinyGpt model(CodecTrainerConfig(), 73);
    TrainerOptions opts;
    opts.store_dir = TempDir(std::string("mismatch_") + FlowClassName(flow));
    opts.codec.spec(flow) = "identity";
    auto trainer = RatelTrainer::Create(&model, opts);
    ASSERT_FALSE(trainer.ok());
    EXPECT_EQ(trainer.status().code(), StatusCode::kInvalidArgument);
    const std::string odd = flow == FlowClass::kGradState
                                ? FlowClassName(FlowClass::kParamFetch)
                                : FlowClassName(flow);
    EXPECT_NE(trainer.status().message().find(odd), std::string::npos)
        << trainer.status().message();
  }
}

TEST(CodecTrainerTest, AllIdentityTierlessTrainerTrainsTheRawTrajectory) {
  // Framing the model-state flows changes the store bytes, never the
  // values: with no DRAM tier every fetch and state read decodes a
  // frame, and the run must match the raw trainer bit for bit.
  auto run = [](const std::string& tag, bool framed) {
    ag::TinyGpt model(CodecTrainerConfig(), 74);
    TrainerOptions opts;
    opts.store_dir = TempDir(tag);
    if (framed) {
      for (FlowClass flow :
           {FlowClass::kParamFetch, FlowClass::kGradState,
            FlowClass::kDeferredState, FlowClass::kCheckpoint}) {
        opts.codec.spec(flow) = "identity";
      }
    }
    auto trainer = RatelTrainer::Create(&model, opts);
    EXPECT_TRUE(trainer.ok()) << trainer.status().message();
    SyntheticDataset ds(SyntheticTask::kAffineMap, 32, 8, 12);
    std::vector<float> trajectory;
    for (int step = 0; step < 4; ++step) {
      const TokenBatch b = ds.NextBatch(2);
      auto loss = (*trainer)->TrainStep(b.ids, b.targets, 2);
      EXPECT_TRUE(loss.ok()) << loss.status().message();
      trajectory.push_back(loss.ok() ? *loss : -1.0f);
    }
    std::vector<float> master;
    EXPECT_TRUE(
        (*trainer)->optimizer().FetchMasterParams("blk0/w_qkv", &master).ok());
    trajectory.insert(trajectory.end(), master.begin(), master.end());
    const TransferStats stats = (*trainer)->transfer_stats();
    EXPECT_EQ(stats.Flow(FlowClass::kParamFetch).decodes > 0, framed);
    return trajectory;
  };
  const std::vector<float> raw = run("all_raw", false);
  const std::vector<float> framed = run("all_identity", true);
  ASSERT_EQ(raw.size(), framed.size());
  EXPECT_EQ(std::memcmp(raw.data(), framed.data(), raw.size() * sizeof(float)),
            0);
}

TEST(CodecTrainerTest, LossyCodecAcceptedOnActivationSpillAndTrains) {
  ag::TinyGptConfig cfg;
  cfg.vocab_size = 32;
  cfg.seq_len = 8;
  cfg.hidden_dim = 16;
  cfg.num_heads = 2;
  cfg.num_layers = 2;
  ag::TinyGpt model(cfg, 72);
  TrainerOptions opts;
  opts.store_dir = TempDir("lossy_ok");
  opts.spill_activations = true;
  opts.codec.spec(FlowClass::kActivationSpill) = "fp16";
  auto trainer = RatelTrainer::Create(&model, opts);
  ASSERT_TRUE(trainer.ok()) << trainer.status().message();
  SyntheticDataset ds(SyntheticTask::kAffineMap, 32, 8, 12);
  const TokenBatch b = ds.NextBatch(2);
  auto loss = (*trainer)->TrainStep(b.ids, b.targets, 2);
  ASSERT_TRUE(loss.ok());
  EXPECT_TRUE(std::isfinite(*loss));
  // The spill flow really went through the codec.
  const TransferStats stats = (*trainer)->transfer_stats();
  const FlowCounters& c = stats.Flow(FlowClass::kActivationSpill);
  EXPECT_GT(c.encodes, 0);
  EXPECT_GT(c.decodes, 0);
  EXPECT_GT(c.WriteCompressionRatio(), 1.0);
}

}  // namespace
}  // namespace ratel
