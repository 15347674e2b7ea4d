#ifndef RATEL_COMMON_CHECKSUM_H_
#define RATEL_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace ratel {

/// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) —
/// the checksum NVMe/iSCSI/ext4 use for data integrity, here guarding
/// checkpoint shards and codec frames against torn writes and bit rot.
/// Runs the SSE4.2 `crc32` instruction when the host has it (chosen
/// once, at startup) and the byte-at-a-time table otherwise; both give
/// identical checksums.
///
/// `crc` chains partial buffers: Crc32c(b, n2, Crc32c(a, n1)) equals
/// Crc32c over the concatenation of a and b.
uint32_t Crc32c(const void* data, size_t size, uint32_t crc = 0);

/// The portable table-driven CRC-32C — the reference the hardware path
/// is checked against. Same contract as Crc32c.
uint32_t Crc32cReference(const void* data, size_t size, uint32_t crc = 0);

/// True when Crc32c runs the SSE4.2 instruction.
bool Crc32cIsHardware();

/// Incremental form for streaming writers/readers.
class Crc32cAccumulator {
 public:
  void Update(const void* data, size_t size) {
    crc_ = Crc32c(data, size, crc_);
  }
  uint32_t value() const { return crc_; }
  void Reset() { crc_ = 0; }

 private:
  uint32_t crc_ = 0;
};

}  // namespace ratel

#endif  // RATEL_COMMON_CHECKSUM_H_
