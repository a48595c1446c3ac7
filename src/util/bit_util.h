// Bit-manipulation helpers used by hash tables and sketches.
#pragma once

#include <bit>
#include <cstdint>

namespace streamfreq {

/// 128-bit integers (GCC/Clang builtins; __extension__ silences the
/// pedantic warning about the non-ISO types).
__extension__ using uint128_t = unsigned __int128;
__extension__ using int128_t = __int128;

namespace bit_util {

/// True iff v is a power of two (0 is not).
constexpr bool IsPowerOfTwo(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// Smallest power of two >= v (v=0 -> 1). Saturates at 2^63.
constexpr uint64_t NextPowerOfTwo(uint64_t v) {
  if (v <= 1) return 1;
  return std::bit_ceil(v);
}

/// floor(log2(v)) for v > 0.
constexpr int FloorLog2(uint64_t v) { return 63 - std::countl_zero(v); }

/// ceil(log2(v)) for v > 0.
constexpr int CeilLog2(uint64_t v) {
  return v <= 1 ? 0 : FloorLog2(v - 1) + 1;
}

/// Rotates x left by r bits.
constexpr uint64_t RotateLeft(uint64_t x, int r) { return std::rotl(x, r); }

/// ceil(a / b) for b > 0.
constexpr uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

/// Fast range reduction: maps a uniform 64-bit hash to [0, n) without a
/// modulo (Lemire's multiply-shift trick). Unbiased enough for bucketing.
inline uint64_t FastRange64(uint64_t hash, uint64_t n) {
  return static_cast<uint64_t>(
      (static_cast<uint128_t>(hash) * static_cast<uint128_t>(n)) >> 64);
}

}  // namespace bit_util
}  // namespace streamfreq
