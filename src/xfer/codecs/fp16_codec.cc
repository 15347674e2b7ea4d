#include <cstring>
#include <memory>

#include "common/fp16.h"
#include "simd/simd.h"
#include "xfer/codec.h"

namespace ratel {

namespace {

/// Float32 -> IEEE binary16 demotion, halving the store footprint of
/// activation spills (the A16 leg is fp16-tolerant by construction —
/// mixed-precision training already computes on half activations).
/// Round-to-nearest-even on encode, exact widening on decode, so
/// half-representable values round-trip bitwise. Both directions run
/// the active simd backend's fp16 conversions, bitwise equal to the
/// scalar FloatToHalf/HalfToFloat loop for every non-NaN value. The
/// trailing `logical % 4` bytes of a non-float-aligned blob ride along
/// verbatim. Callers pass float- and half-aligned spans (pooled buffers
/// and frames, whose payload follows a 32-byte header).
class Fp16Codec : public Codec {
 public:
  const char* name() const override { return "fp16"; }
  CodecId id() const override { return CodecId::kFp16; }
  bool lossless() const override { return false; }

  int64_t EncodedPayloadSize(int64_t logical) const override {
    const int64_t floats = logical / 4;
    return floats * 2 + (logical % 4);
  }

  void EncodePayload(const uint8_t* src, int64_t logical,
                     uint8_t* dst) const override {
    const int64_t floats = logical / 4;
    simd::Kernels().floats_to_halves(reinterpret_cast<const float*>(src),
                                     reinterpret_cast<Fp16*>(dst), floats);
    const int64_t tail = logical % 4;
    if (tail > 0) {
      std::memcpy(dst + floats * 2, src + floats * 4,
                  static_cast<size_t>(tail));
    }
  }
};

}  // namespace

std::shared_ptr<const Codec> MakeFp16Codec() {
  static const std::shared_ptr<const Codec> kInstance =
      std::make_shared<Fp16Codec>();
  return kInstance;
}

namespace codec_internal {

Status DecodeFp16Payload(const uint8_t* payload, int64_t payload_bytes,
                         uint8_t* dst, int64_t logical) {
  const int64_t floats = logical / 4;
  const int64_t tail = logical % 4;
  if (payload_bytes != floats * 2 + tail) {
    return Status::DataLoss("fp16 payload is " +
                            std::to_string(payload_bytes) + " bytes, want " +
                            std::to_string(floats * 2 + tail));
  }
  simd::Kernels().halves_to_floats(reinterpret_cast<const Fp16*>(payload),
                                   reinterpret_cast<float*>(dst), floats,
                                   1.0f);
  if (tail > 0) {
    std::memcpy(dst + floats * 4, payload + floats * 2,
                static_cast<size_t>(tail));
  }
  return Status::Ok();
}

}  // namespace codec_internal

}  // namespace ratel
