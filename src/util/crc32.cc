#include "util/crc32.h"

#include <array>

namespace streamfreq {
namespace crc32c {

namespace {

using Tables = std::array<std::array<uint32_t, 256>, 8>;

// Slice-by-8 tables for the reflected CRC-32C polynomial 0x1EDC6F41.
// tables[0] advances the state by one byte; tables[k][i] is the CRC
// contribution of byte i followed by k zero bytes, so eight lookups
// advance the state by eight bytes at once.
constexpr Tables BuildTables() {
  Tables tables{};
  constexpr uint32_t kPoly = 0x82F63B78U;  // reflected Castagnoli
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr Tables kTables = BuildTables();

// Little-endian load, byte by byte, so the result does not depend on the
// host's byte order or on alignment (compilers fuse it into one load).
inline uint32_t Load32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Extend(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t state = crc ^ 0xFFFFFFFFU;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = state ^ Load32(p);
    const uint32_t hi = Load32(p + 4);
    state = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
            kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
            kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    state = kTables[0][(state ^ *p) & 0xFF] ^ (state >> 8);
  }
  return state ^ 0xFFFFFFFFU;
}

}  // namespace crc32c
}  // namespace streamfreq
