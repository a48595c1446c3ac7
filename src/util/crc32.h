// CRC-32C (Castagnoli) checksums for every framed byte the system writes or
// sends: RPC and delta frames, WAL records, and sketch and trace files.
// That puts it on the ingest and delta-shipping paths, so it is a portable
// slice-by-8 table implementation (eight bytes per step, no ISA-specific
// code). The polynomial matches what RocksDB/LevelDB use, including the
// same masking trick for checksums-of-checksums.
#pragma once

#include <cstddef>
#include <cstdint>

namespace streamfreq {
namespace crc32c {

/// Extends `crc` with `data[0, n)`; start from crc = 0.
uint32_t Extend(uint32_t crc, const void* data, size_t n);

/// CRC-32C of a whole buffer.
inline uint32_t Value(const void* data, size_t n) { return Extend(0, data, n); }

/// Masks a CRC so that storing a CRC inside CRC-protected data does not
/// produce degenerate checksums (LevelDB's rotation+offset trick).
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xA282EAD8U;
}

/// Inverse of Mask.
inline uint32_t Unmask(uint32_t masked) {
  const uint32_t rot = masked - 0xA282EAD8U;
  return (rot >> 17) | (rot << 15);
}

}  // namespace crc32c
}  // namespace streamfreq
