#include "core/sketch_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "frame_corruption_matrix.h"
#include "util/failpoint.h"
#include "verify/program.h"

namespace streamfreq {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

CountSketch MakeLoadedSketch() {
  CountSketchParams p;
  p.depth = 4;
  p.width = 256;
  p.seed = 99;
  auto s = CountSketch::Make(p);
  EXPECT_TRUE(s.ok());
  for (ItemId q = 1; q <= 1000; ++q) s->Add(q, static_cast<Count>(q % 31));
  return std::move(*s);
}

TEST(SketchIoTest, RoundTrip) {
  const std::string path = TempPath("sfq_sketch_roundtrip.skf");
  const CountSketch original = MakeLoadedSketch();
  ASSERT_TRUE(WriteSketchFile(path, original).ok());
  auto loaded = ReadSketchFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->CompatibleWith(original));
  for (ItemId q = 1; q <= 1000; ++q) {
    ASSERT_EQ(loaded->Estimate(q), original.Estimate(q));
  }
  std::remove(path.c_str());
}

TEST(SketchIoTest, MissingFileIsIoError) {
  EXPECT_TRUE(ReadSketchFile(TempPath("nope.skf")).status().IsIoError());
}

TEST(SketchIoTest, FlippedPayloadBitIsCorruption) {
  const std::string path = TempPath("sfq_sketch_bitflip.skf");
  ASSERT_TRUE(WriteSketchFile(path, MakeLoadedSketch()).ok());

  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  data[data.size() / 2] ^= 0x10;  // corrupt mid-payload
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(data.data(), static_cast<std::streamsize>(data.size()));

  EXPECT_TRUE(ReadSketchFile(path).status().IsCorruption());
  std::remove(path.c_str());
}

TEST(SketchIoTest, TruncationIsCorruption) {
  const std::string path = TempPath("sfq_sketch_trunc.skf");
  ASSERT_TRUE(WriteSketchFile(path, MakeLoadedSketch()).ok());
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(data.data(), static_cast<std::streamsize>(data.size() - 100));
  EXPECT_TRUE(ReadSketchFile(path).status().IsCorruption());

  // Header-only truncation.
  std::ofstream(path, std::ios::binary | std::ios::trunc).write(data.data(), 10);
  EXPECT_TRUE(ReadSketchFile(path).status().IsCorruption());
  std::remove(path.c_str());
}

TEST(SketchIoTest, BadMagicIsCorruption) {
  const std::string path = TempPath("sfq_sketch_magic.skf");
  std::ofstream(path, std::ios::binary)
      << std::string(64, 'x');  // 64 junk bytes
  EXPECT_TRUE(ReadSketchFile(path).status().IsCorruption());
  std::remove(path.c_str());
}

// Metamorphic relation from the verify fuzz grammar: serializing the sketch
// mid-stream and continuing on the deserialized copy must be invisible —
// exact counter equality against an uninterrupted ingest, across every
// fuzz workload family.
TEST(SketchIoTest, SerializeMidStreamIsInvisible) {
  for (uint64_t index = 0; index < 4; ++index) {
    const FuzzProgram program = ProgramFromSeed(2026, index);
    auto stream = MaterializeStream(program);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();

    CountSketchParams p;
    p.depth = 5;
    p.width = 512;
    p.seed = 31;
    auto uninterrupted = CountSketch::Make(p);
    ASSERT_TRUE(uninterrupted.ok());
    for (ItemId q : *stream) uninterrupted->Add(q);

    auto first_half = CountSketch::Make(p);
    ASSERT_TRUE(first_half.ok());
    const size_t cut = stream->size() / 2;
    for (size_t i = 0; i < cut; ++i) first_half->Add((*stream)[i]);
    const std::string path = TempPath("sfq_sketch_midstream.skf");
    ASSERT_TRUE(WriteSketchFile(path, *first_half).ok());
    auto resumed = ReadSketchFile(path);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    std::remove(path.c_str());
    for (size_t i = cut; i < stream->size(); ++i) resumed->Add((*stream)[i]);

    for (size_t row = 0; row < uninterrupted->depth(); ++row) {
      for (size_t col = 0; col < uninterrupted->width(); ++col) {
        ASSERT_EQ(resumed->CounterAt(row, col),
                  uninterrupted->CounterAt(row, col))
            << "program " << index << " row " << row << " col " << col;
      }
    }
  }
}

TEST(SketchIoTest, SavedSketchStaysMergeable) {
  const std::string path = TempPath("sfq_sketch_merge.skf");
  CountSketchParams p;
  p.depth = 4;
  p.width = 128;
  p.seed = 7;
  auto a = CountSketch::Make(p);
  ASSERT_TRUE(a.ok());
  a->Add(42, 10);
  ASSERT_TRUE(WriteSketchFile(path, *a).ok());

  auto b = ReadSketchFile(path);
  ASSERT_TRUE(b.ok());
  b->Add(42, 5);
  ASSERT_TRUE(a->Merge(*b).ok());
  EXPECT_EQ(a->Estimate(42), 25);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Corruption matrix + crash-consistency. Every adversarial mutation of a
// valid file must come back as a clean Corruption status — no crash, no UB
// (this file runs under the ASan/UBSan step of scripts/check.sh). The
// matrix itself is shared with the other frame formats
// (tests/frame_corruption_matrix.h).

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.flush();
  EXPECT_TRUE(static_cast<bool>(out)) << path;
}

TEST(SketchIoTest, CorruptionMatrix) {
  const std::string path = TempPath("sfq_blob_matrix.skf");
  FrameFormat f;
  f.name = "blob file";
  f.max_payload = kMaxBlobPayloadBytes;
  f.payload = "blob corruption matrix payload";
  ASSERT_TRUE(WriteBlobFileAtomic(path, kSketchFileMagic, f.payload).ok());
  f.frame = ReadAll(path);
  f.decode = [&path](const std::string& bytes) {
    WriteAll(path, bytes);
    auto payload = ReadBlobFileVerified(path, kSketchFileMagic);
    FrameDecoded got;
    got.status = payload.status();
    if (payload.ok()) got.payload = *payload;
    return got;
  };
  RunFrameCorruptionMatrix(f);
  std::remove(path.c_str());
}

TEST(SketchIoTest, AtomicWriteLeavesNoTempFileBehind) {
  const std::string path = TempPath("sfq_sketch_atomic.skf");
  ASSERT_TRUE(WriteSketchFile(path, MakeLoadedSketch()).ok());
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(static_cast<bool>(tmp)) << "temp file must be renamed away";
  std::remove(path.c_str());
}

// Crash consistency: a save that dies before the rename (injected) must
// leave the previous checkpoint byte-for-byte intact.
TEST(SketchIoTest, FailedRenameLeavesPreviousCheckpointIntact) {
  const std::string path = TempPath("sfq_sketch_crash.skf");
  const CountSketch original = MakeLoadedSketch();
  ASSERT_TRUE(WriteSketchFile(path, original).ok());
  const std::string before = ReadAll(path);

  {
    ScopedFailpoints fp("sketch_io.rename=error*1", 3);
    ASSERT_TRUE(fp.status().ok());
    CountSketchParams p;
    p.depth = 4;
    p.width = 256;
    p.seed = 99;
    auto newer = CountSketch::Make(p);
    ASSERT_TRUE(newer.ok());
    newer->Add(7, 7);
    EXPECT_TRUE(WriteSketchFile(path, *newer).IsIoError());
  }

  EXPECT_EQ(ReadAll(path), before);
  auto loaded = ReadSketchFile(path);
  ASSERT_TRUE(loaded.ok());
  for (ItemId q = 1; q <= 1000; ++q) {
    ASSERT_EQ(loaded->Estimate(q), original.Estimate(q));
  }
  std::remove(path.c_str());
}

// A torn write (injected) bypasses the temp+rename protocol by design; the
// reader must then catch the prefix via its truncation/CRC checks.
TEST(SketchIoTest, InjectedTornWriteIsCaughtOnRead) {
  const std::string path = TempPath("sfq_sketch_torn.skf");
  {
    ScopedFailpoints fp("sketch_io.write=torn*1", 5);
    ASSERT_TRUE(fp.status().ok());
    EXPECT_TRUE(WriteSketchFile(path, MakeLoadedSketch()).IsIoError());
  }
  EXPECT_TRUE(ReadSketchFile(path).status().IsCorruption());
  std::remove(path.c_str());
}

TEST(SketchIoTest, InjectedReadFaultsSurfaceAsStatuses) {
  const std::string path = TempPath("sfq_sketch_readfp.skf");
  ASSERT_TRUE(WriteSketchFile(path, MakeLoadedSketch()).ok());
  {
    ScopedFailpoints fp("sketch_io.read=error*1", 7);
    ASSERT_TRUE(fp.status().ok());
    EXPECT_TRUE(ReadSketchFile(path).status().IsIoError());
  }
  {
    ScopedFailpoints fp("sketch_io.read=bitflip*1", 7);
    ASSERT_TRUE(fp.status().ok());
    EXPECT_TRUE(ReadSketchFile(path).status().IsCorruption());
  }
  // Disarmed again: the file itself was never touched.
  EXPECT_TRUE(ReadSketchFile(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace streamfreq
