#include "common/checksum.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace ratel {

namespace {

// Reflected CRC-32C table, generated once at static-init time.
std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = BuildTable();
  return table;
}

#if defined(__x86_64__)
// SSE4.2 `crc32` computes exactly the reflected Castagnoli CRC: bytes up
// to an 8-byte boundary, then one 64-bit step per word, then the tail.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                       size_t size,
                                                       uint32_t crc) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; size > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0; --size) {
    c = _mm_crc32_u8(c, *p++);
  }
  uint64_t c64 = c;
  for (; size >= 8; size -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c64 = _mm_crc32_u64(c64, word);
  }
  c = static_cast<uint32_t>(c64);
  for (; size > 0; --size) c = _mm_crc32_u8(c, *p++);
  return c ^ 0xFFFFFFFFu;
}
#endif

using Crc32cFn = uint32_t (*)(const void*, size_t, uint32_t);

Crc32cFn ResolveCrc32c() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) return Crc32cSse42;
#endif
  return Crc32cReference;
}

// Resolved once, at static initialization.
const Crc32cFn kCrc32c = ResolveCrc32c();

}  // namespace

uint32_t Crc32cReference(const void* data, size_t size, uint32_t crc) {
  const auto& table = Table();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

bool Crc32cIsHardware() { return kCrc32c != Crc32cReference; }

uint32_t Crc32c(const void* data, size_t size, uint32_t crc) {
  // A caller running during static initialization, before kCrc32c is
  // set, gets the reference path.
  return kCrc32c != nullptr ? kCrc32c(data, size, crc)
                            : Crc32cReference(data, size, crc);
}

}  // namespace ratel
