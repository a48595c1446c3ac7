#include "util/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace streamfreq {
namespace crc32c {
namespace {

// Bit-at-a-time CRC-32C straight from the reflected polynomial: the
// reference the table-driven Extend must match bit for bit.
uint32_t ReferenceExtend(uint32_t crc, const unsigned char* p, size_t n) {
  uint32_t state = crc ^ 0xFFFFFFFFU;
  for (size_t i = 0; i < n; ++i) {
    state ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      state = (state & 1) ? (state >> 1) ^ 0x82F63B78U : state >> 1;
    }
  }
  return state ^ 0xFFFFFFFFU;
}

TEST(Crc32cTest, KnownVectors) {
  // Standard CRC-32C test vectors (RFC 3720 appendix / common test suites).
  EXPECT_EQ(Value("", 0), 0x00000000U);
  const std::string num = "123456789";
  EXPECT_EQ(Value(num.data(), num.size()), 0xE3069283U);
  const std::string zeros(32, '\0');
  EXPECT_EQ(Value(zeros.data(), zeros.size()), 0x8A9136AAU);
}

TEST(Crc32cTest, ExtendMatchesWholeBuffer) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Value(data.data(), data.size());
  uint32_t incremental = 0;
  incremental = Extend(incremental, data.data(), 10);
  incremental = Extend(incremental, data.data() + 10, data.size() - 10);
  EXPECT_EQ(incremental, whole);
}

TEST(Crc32cTest, MatchesReferenceAtEveryLengthAlignmentAndSplit) {
  constexpr size_t kMaxLen = 256;
  constexpr size_t kAlignments = 8;
  std::vector<unsigned char> buffer(kMaxLen + kAlignments);
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (unsigned char& byte : buffer) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    byte = static_cast<unsigned char>(x);
  }
  for (size_t align = 0; align < kAlignments; ++align) {
    const unsigned char* data = buffer.data() + align;
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const uint32_t want = ReferenceExtend(0, data, len);
      ASSERT_EQ(Value(data, len), want) << "len " << len << " align " << align;
      for (size_t split = 0; split <= len; ++split) {
        const uint32_t head = Extend(0, data, split);
        ASSERT_EQ(Extend(head, data + split, len - split), want)
            << "len " << len << " align " << align << " split " << split;
      }
    }
  }
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  std::string data(100, 'a');
  const uint32_t original = Value(data.data(), data.size());
  for (size_t byte : {0u, 50u, 99u}) {
    std::string corrupted = data;
    corrupted[byte] ^= 1;
    EXPECT_NE(Value(corrupted.data(), corrupted.size()), original);
  }
}

TEST(Crc32cTest, MaskRoundTrips) {
  for (uint32_t crc : {0x0U, 0x1U, 0xDEADBEEFU, 0xFFFFFFFFU}) {
    EXPECT_EQ(Unmask(Mask(crc)), crc);
    EXPECT_NE(Mask(crc), crc) << "mask must change the value";
  }
}

}  // namespace
}  // namespace crc32c
}  // namespace streamfreq
