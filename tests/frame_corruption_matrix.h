// The frame corruption matrix, written once for every format built on
// util/frame.h: RPC frames (DecodeFrame), WAL records (ReplayWal) and blob
// files (ReadBlobFileVerified). Each test binary describes its format as a
// FrameFormat -- one intact frame from the format's real writer, and a
// decode function that feeds bytes to the format's real entry point -- and
// calls RunFrameCorruptionMatrix. The matrix then checks:
//
//   * the intact frame decodes to its payload;
//   * truncation at every byte;
//   * every header bit flipped;
//   * every payload bit flipped;
//   * wrong magic and a future version tag;
//   * an oversized declared length, past the bound (rejected by the bound)
//     and at it (rejected as truncation);
//   * trailing bytes.
//
// What "rejected" means is the format's policy. Under kCorruption the entry
// point returns Corruption. Under kTornTail (the WAL) the damaged frame ends
// the intact prefix: decode returns OK, delivers nothing, and discards
// exactly the damaged bytes -- and, when `follow` is set, the same holds
// with an intact frame after the damage, which is discarded too.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "util/frame.h"
#include "util/status.h"

namespace streamfreq {

/// What a format's decode entry point made of some bytes.
struct FrameDecoded {
  Status status;
  /// The payload of the frame under test, when it was delivered whole.
  std::optional<std::string> payload;
  /// Bytes the decoder refused without failing (a journal's torn tail).
  uint64_t discarded_bytes = 0;
};

enum class FramePolicy {
  kCorruption,  ///< a bad frame fails the decode with Corruption
  kTornTail,    ///< a bad frame ends the intact prefix; the rest is dropped
};

struct FrameFormat {
  std::string name;
  FramePolicy policy = FramePolicy::kCorruption;
  uint64_t max_payload = 0;  ///< the format's length bound
  std::string frame;         ///< one intact frame from the real writer
  std::string payload;       ///< the payload inside `frame`
  /// kTornTail only: an intact frame that may follow the one under test.
  std::string follow;
  std::function<FrameDecoded(const std::string& bytes)> decode;
};

/// What util/frame says when a declared length exceeds the caller's bound.
inline constexpr std::string_view kBoundMessage = "exceeds bound";

namespace frame_matrix_internal {

inline void ExpectRejected(const FrameFormat& f, const std::string& bytes,
                           const std::string& what) {
  const FrameDecoded got = f.decode(bytes);
  if (f.policy == FramePolicy::kCorruption) {
    EXPECT_TRUE(got.status.IsCorruption())
        << f.name << ": " << what << ": " << got.status.ToString();
    return;
  }
  EXPECT_TRUE(got.status.ok())
      << f.name << ": " << what << ": " << got.status.ToString();
  EXPECT_FALSE(got.payload.has_value()) << f.name << ": " << what;
  EXPECT_EQ(got.discarded_bytes, bytes.size()) << f.name << ": " << what;
  if (!f.follow.empty()) {
    // Damage before an intact frame still ends the prefix there.
    const FrameDecoded before = f.decode(bytes + f.follow);
    EXPECT_TRUE(before.status.ok())
        << f.name << ": " << what << " + intact frame: "
        << before.status.ToString();
    EXPECT_FALSE(before.payload.has_value())
        << f.name << ": " << what << " + intact frame";
    EXPECT_EQ(before.discarded_bytes, bytes.size() + f.follow.size())
        << f.name << ": " << what << " + intact frame";
  }
}

inline std::string FlipBit(std::string bytes, size_t bit) {
  bytes[bit / 8] = static_cast<char>(
      static_cast<unsigned char>(bytes[bit / 8]) ^ (1u << (bit % 8)));
  return bytes;
}

inline std::string WithLength(std::string bytes, uint64_t len) {
  std::memcpy(bytes.data() + 8, &len, 8);
  return bytes;
}

}  // namespace frame_matrix_internal

inline void RunFrameCorruptionMatrix(const FrameFormat& f) {
  using frame_matrix_internal::ExpectRejected;
  using frame_matrix_internal::FlipBit;
  using frame_matrix_internal::WithLength;
  ASSERT_GT(f.frame.size(), frame::kHeaderSize) << f.name;
  ASSERT_EQ(f.frame.size(), frame::kHeaderSize + f.payload.size()) << f.name;

  const FrameDecoded intact = f.decode(f.frame);
  ASSERT_TRUE(intact.status.ok()) << f.name << ": " << intact.status.ToString();
  ASSERT_EQ(intact.payload, f.payload) << f.name;
  EXPECT_EQ(intact.discarded_bytes, 0u) << f.name;

  // Truncation at every byte. An empty journal is a clean one; every other
  // format must reject even zero bytes.
  for (size_t len = 0; len < f.frame.size(); ++len) {
    if (len == 0 && f.policy == FramePolicy::kTornTail) {
      const FrameDecoded empty = f.decode("");
      EXPECT_TRUE(empty.status.ok())
          << f.name << ": " << empty.status.ToString();
      EXPECT_FALSE(empty.payload.has_value()) << f.name;
      EXPECT_EQ(empty.discarded_bytes, 0u) << f.name;
      continue;
    }
    ExpectRejected(f, f.frame.substr(0, len),
                   "prefix of " + std::to_string(len) + " bytes");
  }

  // Every bit of the header, then every bit of the payload.
  for (size_t bit = 0; bit < f.frame.size() * 8; ++bit) {
    ExpectRejected(f, FlipBit(f.frame, bit),
                   std::string(bit < frame::kHeaderSize * 8 ? "header"
                                                            : "payload") +
                       " bit " + std::to_string(bit) + " flipped");
  }

  // An alien magic, and a future version of this one (last tag byte + 1).
  std::string alien = f.frame;
  std::memset(alien.data(), 'Z', 8);
  ExpectRejected(f, alien, "alien magic");
  std::string future = f.frame;
  future[7] = static_cast<char>(future[7] + 1);
  ExpectRejected(f, future, "future version tag");

  // A declared length past the bound, and one at it that the bytes do not
  // back: both rejected before anything is sized by them. Both are
  // Corruption, so the message tells them apart: the bound itself rejects
  // the first, and only the truncation behind it rejects the second. That
  // pins each format's bound from both sides. A journal's torn tail looks
  // the same either way; the WAL tests check its bound with records whose
  // bytes back the length.
  const std::string past = WithLength(f.frame, f.max_payload + 1);
  const std::string at = WithLength(f.frame, f.max_payload);
  ExpectRejected(f, past, "length past the bound");
  ExpectRejected(f, at, "length at the bound");
  if (f.policy == FramePolicy::kCorruption) {
    const Status past_status = f.decode(past).status;
    EXPECT_NE(past_status.message().find(kBoundMessage), std::string::npos)
        << f.name << ": length past the bound: " << past_status.ToString();
    const Status at_status = f.decode(at).status;
    EXPECT_EQ(at_status.message().find(kBoundMessage), std::string::npos)
        << f.name << ": length at the bound: " << at_status.ToString();
  }

  // Trailing bytes: the length field and the contents disagree. A journal
  // keeps the intact frame and drops the tail.
  const std::string trailing = f.frame + "junk";
  if (f.policy == FramePolicy::kCorruption) {
    ExpectRejected(f, trailing, "trailing bytes");
  } else {
    const FrameDecoded got = f.decode(trailing);
    EXPECT_TRUE(got.status.ok()) << f.name << ": " << got.status.ToString();
    EXPECT_EQ(got.payload, f.payload) << f.name;
    EXPECT_EQ(got.discarded_bytes, 4u) << f.name;
  }
}

}  // namespace streamfreq
