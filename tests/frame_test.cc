// util/frame: the one codec behind RPC frames, WAL records and blob files.
// The corruption matrix runs once per format in that format's own test
// (tests/frame_corruption_matrix.h); this file checks the codec's own
// contract and pins the exact header bytes every format writes.
#include "util/frame.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/sketch_io.h"
#include "server/protocol.h"
#include "server/snapshotter.h"
#include "server/wal.h"
#include "util/bytes.h"

namespace streamfreq {
namespace {

constexpr uint64_t kMagic = 0x3130545345544653ULL;  // "SFTEST01"

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::string Hex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

TEST(FrameCodecTest, AppendThenSplitRoundTrips) {
  const std::vector<std::string> payloads = {
      std::string(), std::string("x"), std::string(100000, 'q'),
      std::string("\0\xff\x7f", 3)};
  // Frames append after whatever the buffer already holds.
  std::string stream = "prefix";
  for (const std::string& p : payloads) frame::Append(kMagic, p, &stream);

  std::string_view rest = stream;
  rest.remove_prefix(6);
  for (const std::string& p : payloads) {
    std::string_view payload;
    ASSERT_TRUE(frame::Split(&rest, kMagic, p.size(), &payload).ok());
    EXPECT_EQ(payload, p);
  }
  EXPECT_TRUE(rest.empty());
  EXPECT_EQ(stream.size(), 6 + 4 * frame::kHeaderSize + 100004);
}

TEST(FrameCodecTest, ParseHeaderChecksMagicThenBound) {
  std::string bytes;
  frame::Append(kMagic, std::string(100, 'p'), &bytes);
  frame::Header header;
  ASSERT_TRUE(frame::ParseHeader(bytes, kMagic, 100, &header).ok());
  EXPECT_EQ(header.payload_len, 100u);
  uint32_t masked_crc;
  std::memcpy(&masked_crc, bytes.data() + 16, 4);
  EXPECT_EQ(header.masked_crc, masked_crc);

  // One byte over the caller's bound, another format's magic, and a header
  // one byte short are all Corruption, and leave the output untouched.
  frame::Header untouched{7, 7};
  const Status past = frame::ParseHeader(bytes, kMagic, 99, &untouched);
  EXPECT_TRUE(past.IsCorruption());
  EXPECT_NE(past.message().find("exceeds bound"), std::string::npos)
      << past.ToString();
  EXPECT_TRUE(
      frame::ParseHeader(bytes, kMagic + 1, 100, &untouched).IsCorruption());
  EXPECT_TRUE(frame::ParseHeader(std::string_view(bytes).substr(0, 19), kMagic,
                                 100, &untouched)
                  .IsCorruption());
  EXPECT_EQ(untouched.payload_len, 7u);
  EXPECT_EQ(untouched.masked_crc, 7u);
}

TEST(FrameCodecTest, VerifyPayloadChecksLengthThenCrc) {
  std::string bytes;
  frame::Append(kMagic, "payload", &bytes);
  frame::Header header;
  ASSERT_TRUE(frame::ParseHeader(bytes, kMagic, 64, &header).ok());
  const std::string_view payload = std::string_view(bytes).substr(20);
  EXPECT_TRUE(frame::VerifyPayload(header, payload).ok());
  EXPECT_TRUE(frame::VerifyPayload(header, "payloa").IsCorruption());
  EXPECT_TRUE(frame::VerifyPayload(header, "payload!").IsCorruption());
  EXPECT_TRUE(frame::VerifyPayload(header, "Payload").IsCorruption());
}

TEST(FrameCodecTest, FailedSplitConsumesNothing) {
  std::string bytes;
  frame::Append(kMagic, "payload", &bytes);
  std::string flipped = bytes;
  flipped.back() = static_cast<char>(flipped.back() ^ 1);
  // A cut payload, then a damaged one that the CRC must catch.
  for (const std::string_view bad :
       {std::string_view(bytes).substr(0, 25), std::string_view(flipped)}) {
    std::string_view rest = bad;
    std::string_view payload = "unchanged";
    EXPECT_TRUE(frame::Split(&rest, kMagic, 64, &payload).IsCorruption());
    EXPECT_EQ(rest.size(), bad.size());
    EXPECT_EQ(payload, "unchanged");
  }
}

// Golden bytes. One fixed payload -- a WAL record body, u64 seqno 1 | u64
// count 2 | items 7, 42 -- framed by each format's real writer. The header
// of every format is pinned byte for byte: the magic, the length (32) and
// the masked CRC-32C. A layout change fails here, and frames, journals and
// snapshots written before it still load.
TEST(GoldenFrameTest, HeaderBytesArePinnedForEveryFormat) {
  const std::string dir = ::testing::TempDir() + "/sfq_golden_frames";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::string payload;
  ByteWriter w(&payload);
  for (const uint64_t v : {1, 2, 7, 42}) w.PutU64(v);

  const std::string rpc = EncodeFrame(payload);

  const std::string wal_path = dir + "/journal.sfw";
  {
    auto wal = WalWriter::Open(wal_path, WalFsync::kNever);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_TRUE(wal->Append(1, std::vector<ItemId>{7, 42}).ok());
  }
  const std::string wal = ReadFileBytes(wal_path);

  const std::string skf_path = dir + "/sketch.skf";
  ASSERT_TRUE(WriteBlobFileAtomic(skf_path, kSketchFileMagic, payload).ok());
  const std::string skf = ReadFileBytes(skf_path);

  const std::string snp_path = dir + "/snapshot.sfs";
  ASSERT_TRUE(WriteBlobFileAtomic(snp_path, kSnapshotMagic, payload).ok());
  const std::string snp = ReadFileBytes(snp_path);

  struct Golden {
    const char* name;
    const std::string& bytes;
    const char* header_hex;  // magic | length | masked CRC-32C
  };
  const Golden goldens[] = {
      {"rpc frame", rpc, "5346515250433031" "2000000000000000" "ce88b627"},
      {"wal record", wal, "53465157414c3031" "2000000000000000" "ce88b627"},
      {"sketch checkpoint", skf,
       "5331304653514653" "2000000000000000" "ce88b627"},
      {"tenant snapshot", snp,
       "535151534e503031" "2000000000000000" "ce88b627"},
  };
  for (const Golden& g : goldens) {
    ASSERT_EQ(g.bytes.size(), frame::kHeaderSize + payload.size()) << g.name;
    EXPECT_EQ(Hex(std::string_view(g.bytes).substr(0, frame::kHeaderSize)),
              g.header_hex)
        << g.name;
    EXPECT_EQ(g.bytes.substr(frame::kHeaderSize), payload) << g.name;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace streamfreq
