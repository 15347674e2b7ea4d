#ifndef RATEL_TESTS_TEST_BUFFERS_H_
#define RATEL_TESTS_TEST_BUFFERS_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/buffer.h"

namespace ratel {

/// Standalone Buffer holding a copy of `v`'s bytes: how a test that
/// keeps its expected data in a vector feeds the Buffer-only movement
/// API.
template <typename T>
Buffer BufferOf(const std::vector<T>& v) {
  return Buffer::CopyOf(v.data(), static_cast<int64_t>(sizeof(T) * v.size()));
}

/// The bytes of `b` as a vector of T, for comparison against expected
/// data.
template <typename T = uint8_t>
std::vector<T> VectorOf(const Buffer& b) {
  std::vector<T> out(static_cast<size_t>(b.size()) / sizeof(T));
  if (!out.empty()) std::memcpy(out.data(), b.data(), out.size() * sizeof(T));
  return out;
}

}  // namespace ratel

#endif  // RATEL_TESTS_TEST_BUFFERS_H_
