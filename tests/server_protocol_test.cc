// Protocol battery for `sfq serve`: round-trips for every opcode, the
// shared frame corruption matrix (tests/frame_corruption_matrix.h) against
// DecodeFrame, and truncation of every request and response payload — all
// of which must come back as a clean error Status (never a crash, never a
// giant allocation; the suite also runs under ASan/UBSan via
// scripts/check.sh).
#include "server/protocol.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

#include "frame_corruption_matrix.h"
#include "server/net.h"
#include "util/bytes.h"
#include "util/frame.h"

namespace streamfreq {
namespace {

Request SampleRequest(Opcode op) {
  Request request;
  request.op = op;
  if (OpcodeNeedsTenant(op)) request.tenant = "tenant-A.1";
  switch (op) {
    case Opcode::kCreateTenant:
      request.spec.seed = 77;
      request.spec.threads = 3;
      request.spec.push_timeout_ms = 5;
      request.spec.policy = OverflowPolicy::kShed;
      request.spec.tracked = 128;
      break;
    case Opcode::kIngest:
      request.items = {1, 2, 3, 0xFFFFFFFFFFFFFFFFULL, 42};
      break;
    case Opcode::kTopK:
    case Opcode::kMaxChange:
      request.k = 10;
      break;
    case Opcode::kEstimate:
      request.item = 0xDEADBEEFULL;
      break;
    default:
      break;
  }
  return request;
}

Response SampleResponse() {
  Response response;
  response.epoch = 41;
  response.value = -7;
  response.entries = {{1, 100}, {2, -50}, {3, 25}};
  response.blob = std::string("sketch-bytes\0with-nul", 21);
  return response;
}

TEST(OpcodeRegistryTest, TableIsDenseAndComplete) {
  const std::span<const OpcodeInfo> table = OpcodeTable();
  ASSERT_EQ(table.size(), kOpcodeCount);
  for (size_t i = 0; i < table.size(); ++i) {
    // Rows sit at their wire value: the table IS the numbering.
    EXPECT_EQ(static_cast<size_t>(table[i].op), i);
    ASSERT_NE(table[i].name, nullptr);
    EXPECT_STRNE(table[i].name, "");

    auto by_raw = LookupOpcode(static_cast<uint64_t>(i));
    ASSERT_TRUE(by_raw.ok());
    EXPECT_EQ(*by_raw, table[i].op);

    auto by_name = OpcodeFromName(table[i].name);
    ASSERT_TRUE(by_name.ok()) << table[i].name;
    EXPECT_EQ(*by_name, table[i].op);

    EXPECT_STREQ(OpcodeName(table[i].op), table[i].name);
    EXPECT_EQ(OpcodeNeedsTenant(table[i].op), table[i].needs_tenant);
  }
  // Names are unique.
  for (size_t i = 0; i < table.size(); ++i) {
    for (size_t j = i + 1; j < table.size(); ++j) {
      EXPECT_STRNE(table[i].name, table[j].name);
    }
  }
}

TEST(OpcodeRegistryTest, UnregisteredValuesAreInvalidArgument) {
  EXPECT_TRUE(LookupOpcode(kOpcodeCount).status().IsInvalidArgument());
  EXPECT_TRUE(LookupOpcode(~uint64_t{0}).status().IsInvalidArgument());
  EXPECT_TRUE(OpcodeFromName("").status().IsInvalidArgument());
  EXPECT_TRUE(OpcodeFromName("frobnicate").status().IsInvalidArgument());
}

TEST(PolicyWireTest, RoundTripsAndRejectsUnknown) {
  for (OverflowPolicy policy : {OverflowPolicy::kBlock, OverflowPolicy::kShed,
                                OverflowPolicy::kSample}) {
    auto from_wire = PolicyFromWire(PolicyToWire(policy));
    ASSERT_TRUE(from_wire.ok());
    EXPECT_EQ(*from_wire, policy);
    auto from_name = PolicyFromName(PolicyName(policy));
    ASSERT_TRUE(from_name.ok());
    EXPECT_EQ(*from_name, policy);
  }
  EXPECT_TRUE(PolicyFromWire(99).status().IsInvalidArgument());
  EXPECT_TRUE(PolicyFromName("fifo").status().IsInvalidArgument());
}

TEST(TenantNameTest, ValidatesCharsetAndLength) {
  EXPECT_TRUE(ValidTenantName("a"));
  EXPECT_TRUE(ValidTenantName("Tenant_0.9-x"));
  EXPECT_TRUE(ValidTenantName(std::string(64, 'z')));
  EXPECT_FALSE(ValidTenantName(""));
  EXPECT_FALSE(ValidTenantName(std::string(65, 'z')));
  EXPECT_FALSE(ValidTenantName("has space"));
  EXPECT_FALSE(ValidTenantName("slash/y"));
  EXPECT_FALSE(ValidTenantName(std::string("nul\0byte", 8)));
  EXPECT_FALSE(ValidTenantName("quote\"y"));
}

TEST(FrameTest, RoundTripsPayloads) {
  for (const std::string& payload :
       {std::string(), std::string("x"), std::string(100000, 'q'),
        std::string("\0\xff\x7f", 3)}) {
    const std::string frame = EncodeFrame(payload);
    ASSERT_EQ(frame.size(), frame::kHeaderSize + payload.size());
    std::string decoded;
    ASSERT_TRUE(DecodeFrame(frame, &decoded).ok());
    EXPECT_EQ(decoded, payload);
  }
}

TEST(FrameTest, CorruptionMatrix) {
  FrameFormat f;
  f.name = "rpc frame";
  f.max_payload = kMaxPayloadBytes;
  f.payload = "corruption matrix payload";
  f.frame = EncodeFrame(f.payload);
  f.decode = [](const std::string& bytes) {
    FrameDecoded got;
    std::string payload;
    got.status = DecodeFrame(bytes, &payload);
    if (got.status.ok()) got.payload = payload;
    return got;
  };
  RunFrameCorruptionMatrix(f);
}

TEST(RequestTest, RoundTripsEveryOpcode) {
  for (const OpcodeInfo& info : OpcodeTable()) {
    const Request request = SampleRequest(info.op);
    std::string payload;
    request.EncodeTo(&payload);
    auto decoded = Request::Decode(payload);
    ASSERT_TRUE(decoded.ok()) << info.name << ": "
                              << decoded.status().ToString();
    EXPECT_EQ(*decoded, request) << info.name;
  }
}

TEST(RequestTest, TruncationAtEveryBoundaryFailsCleanly) {
  for (const OpcodeInfo& info : OpcodeTable()) {
    std::string payload;
    SampleRequest(info.op).EncodeTo(&payload);
    for (size_t len = 0; len < payload.size(); ++len) {
      auto decoded = Request::Decode(payload.substr(0, len));
      EXPECT_FALSE(decoded.ok())
          << info.name << ": prefix of " << len << " bytes decoded";
    }
    // Trailing bytes mean the decoder lost sync with the encoder.
    auto trailing = Request::Decode(payload + "y");
    EXPECT_FALSE(trailing.ok()) << info.name;
  }
}

TEST(RequestTest, UnregisteredOpcodeIsInvalidArgumentNotCorruption) {
  // A CRC-valid frame carrying an unknown opcode is a protocol-version
  // mismatch, not wire damage: the server answers with an error and keeps
  // the connection (DecodeFrame already vouched for the bytes).
  std::string payload;
  Request ping;
  ping.EncodeTo(&payload);
  std::string unknown = payload;
  unknown[0] = static_cast<char>(kOpcodeCount);  // first field is the opcode
  EXPECT_TRUE(Request::Decode(unknown).status().IsInvalidArgument());
}

TEST(RequestTest, BadTenantNameRejected) {
  Request request = SampleRequest(Opcode::kTopK);
  request.tenant = "bad tenant name!";
  std::string payload;
  request.EncodeTo(&payload);
  EXPECT_TRUE(Request::Decode(payload).status().IsInvalidArgument());
}

TEST(RequestTest, ItemCountMismatchIsCorruption) {
  // Declare more items than the payload carries: the count is checked
  // against the exact remaining bytes before any vector reserve.
  std::string payload;
  SampleRequest(Opcode::kIngest).EncodeTo(&payload);
  // The item array is the final field: u64 count then count * 8 bytes.
  const size_t count_at = payload.size() - 5 * 8 - 8;
  std::string grown = payload.substr(0, count_at);
  ByteWriter writer(&grown);
  writer.PutU64(~uint64_t{0});  // absurd count, no bytes behind it
  EXPECT_TRUE(Request::Decode(grown).status().IsCorruption());
}

TEST(ResponseTest, RoundTripsResultsAndErrors) {
  const Response response = SampleResponse();
  std::string payload;
  response.EncodeTo(&payload);
  auto decoded = Response::Decode(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, response);
  EXPECT_TRUE(decoded->ok());
  EXPECT_TRUE(decoded->ToStatus().ok());

  const Response error =
      Response::FromStatus(Status::NotFound("no such tenant: x"));
  std::string error_payload;
  error.EncodeTo(&error_payload);
  auto error_decoded = Response::Decode(error_payload);
  ASSERT_TRUE(error_decoded.ok());
  EXPECT_FALSE(error_decoded->ok());
  EXPECT_TRUE(error_decoded->ToStatus().IsNotFound());
  EXPECT_EQ(error_decoded->ToStatus().message(), "no such tenant: x");
}

TEST(ResponseTest, TruncationAtEveryBoundaryFailsCleanly) {
  std::string payload;
  SampleResponse().EncodeTo(&payload);
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(Response::Decode(payload.substr(0, len)).ok())
        << "prefix of " << len << " bytes decoded";
  }
  EXPECT_FALSE(Response::Decode(payload + "z").ok());
}

TEST(ResponseTest, UnknownStatusCodeRejected) {
  std::string payload;
  Response().EncodeTo(&payload);
  payload[0] = 99;  // code is the first u64; 99 is beyond kInternal
  EXPECT_FALSE(Response::Decode(payload).ok());
}

// Socket-level EOF discrimination: a peer that hangs up between frames is
// a clean NotFound; one that dies mid-frame is Corruption.
TEST(NetTest, CleanEofVsMidFrameTruncation) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  OwnedFd reader(fds[0]);
  {
    OwnedFd writer_fd(fds[1]);
    ASSERT_TRUE(SendFrame(writer_fd.get(), "whole frame").ok());
    const std::string frame = EncodeFrame("gets cut short");
    const std::string half = frame.substr(0, frame.size() / 2);
    ASSERT_EQ(::write(writer_fd.get(), half.data(), half.size()),
              static_cast<ssize_t>(half.size()));
  }  // writer closes: EOF after one whole frame and half of another

  auto whole = RecvFrame(reader.get());
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(*whole, "whole frame");
  EXPECT_TRUE(RecvFrame(reader.get()).status().IsCorruption());

  int more[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, more), 0);
  OwnedFd reader2(more[0]);
  { OwnedFd writer2(more[1]); }  // close immediately: EOF at a boundary
  EXPECT_TRUE(RecvFrame(reader2.get()).status().IsNotFound());
}

// The streaming reader verifies the payload's CRC, like DecodeFrame.
TEST(NetTest, FlippedPayloadBitIsCorruption) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  OwnedFd reader(fds[0]);
  {
    OwnedFd writer_fd(fds[1]);
    std::string frame = EncodeFrame("checksummed payload");
    frame.back() = static_cast<char>(frame.back() ^ 1);
    ASSERT_EQ(::write(writer_fd.get(), frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
  }
  const Status status = RecvFrame(reader.get()).status();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

// The streaming reader checks the header's declared length against the
// bound before it sizes the payload buffer: the bound, not the EOF behind
// the header, is what rejects the frame.
TEST(NetTest, OversizedDeclaredLengthIsCorruptionBeforeAllocation) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  OwnedFd reader(fds[0]);
  {
    OwnedFd writer_fd(fds[1]);
    std::string header = EncodeFrame("");
    const uint64_t len = kMaxPayloadBytes + 1;
    std::memcpy(header.data() + 8, &len, 8);
    ASSERT_EQ(::write(writer_fd.get(), header.data(), header.size()),
              static_cast<ssize_t>(header.size()));
  }
  const Status status = RecvFrame(reader.get()).status();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.message().find(kBoundMessage), std::string::npos)
      << status.ToString();
}

TEST(NetTest, OversizedSendRejectedBeforeWrite) {
  const std::string too_big(kMaxPayloadBytes + 1, 'x');
  // fd -1: the bound check fires before any write is attempted.
  EXPECT_TRUE(SendFrame(-1, too_big).IsInvalidArgument());
}

}  // namespace
}  // namespace streamfreq
