// Crash-recovery battery for the durable tenant layer: WAL framing and
// replay (the shared frame corruption matrix, duplicate sequences, gaps),
// TenantStore snapshot+journal recovery, and whole-service recovery with
// the conservation ledger and bit-identical sketches.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/count_sketch.h"
#include "server/protocol.h"
#include "server/service.h"
#include "server/snapshotter.h"
#include "server/wal.h"
#include "frame_corruption_matrix.h"
#include "util/bytes.h"
#include "util/crc32.h"
#include "util/failpoint.h"
#include "util/frame.h"

namespace streamfreq {
namespace {

std::string TempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

/// Appends `batches` as records 1..N and returns the journal path.
std::string WriteJournal(const std::string& dir,
                         const std::vector<std::vector<ItemId>>& batches) {
  const std::string path = dir + "/journal.sfw";
  auto wal = WalWriter::Open(path, WalFsync::kNever);
  EXPECT_TRUE(wal.ok()) << wal.status().ToString();
  uint64_t seqno = 0;
  for (const std::vector<ItemId>& batch : batches) {
    EXPECT_TRUE(wal->Append(++seqno, batch).ok());
  }
  return path;
}

struct Replayed {
  std::vector<uint64_t> seqnos;
  std::vector<ItemId> items;
};

Result<WalReplayStats> Replay(const std::string& path, uint64_t base,
                              Replayed* out) {
  return ReplayWal(path, base,
                   [out](uint64_t seqno, std::span<const ItemId> items) {
                     out->seqnos.push_back(seqno);
                     out->items.insert(out->items.end(), items.begin(),
                                       items.end());
                     return Status::OK();
                   });
}

TEST(WalTest, RoundTrip) {
  const std::string dir = TempDir("wal_roundtrip");
  const std::string path =
      WriteJournal(dir, {{1, 2, 3}, {4, 5}, {6}});
  Replayed got;
  auto stats = Replay(path, 0, &got);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->records_applied, 3u);
  EXPECT_EQ(stats->last_seqno, 3u);
  EXPECT_FALSE(stats->torn_tail);
  EXPECT_EQ(stats->duplicates_skipped, 0u);
  EXPECT_EQ(got.seqnos, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(got.items, (std::vector<ItemId>{1, 2, 3, 4, 5, 6}));
}

TEST(WalTest, MissingJournalIsEmpty) {
  Replayed got;
  auto stats = Replay(TempDir("wal_missing") + "/nope.sfw", 7, &got);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records_applied, 0u);
  EXPECT_EQ(stats->last_seqno, 7u);
  EXPECT_FALSE(stats->torn_tail);
  EXPECT_TRUE(got.seqnos.empty());
}

// The shared frame corruption matrix (tests/frame_corruption_matrix.h) as
// seen by ReplayWal, with the journal's own policy: truncation at every
// byte, every header and payload bit flip, wrong magic, and oversized
// lengths each end the intact prefix. `lead` (whole records, possibly none)
// must still apply, the discarded byte count must be exact, and an intact
// `follow` record after the damage must not be reached, because skipping
// over damage would silently reorder history.
FrameFormat WalRecordFormat(const std::string& path, const std::string& lead,
                            size_t lead_records, const std::string& record,
                            const std::string& follow) {
  FrameFormat f;
  f.name = "wal record after " + std::to_string(lead_records) + " records";
  f.policy = FramePolicy::kTornTail;
  f.max_payload = kWalMaxPayloadBytes;
  f.frame = record;
  f.payload = record.substr(frame::kHeaderSize);
  f.follow = follow;
  f.decode = [path, lead, lead_records](const std::string& bytes) {
    WriteFileBytes(path, lead + bytes);
    std::vector<std::string> records;
    auto stats = ReplayWal(path, 0,
                           [&records](uint64_t seqno,
                                      std::span<const ItemId> items) {
                             std::string payload;
                             ByteWriter w(&payload);
                             w.PutU64(seqno);
                             w.PutU64(items.size());
                             for (const ItemId id : items) w.PutU64(id);
                             records.push_back(std::move(payload));
                             return Status::OK();
                           });
    FrameDecoded got;
    got.status = stats.status();
    if (!stats.ok()) return got;
    // The intact prefix applies whole, and replay accounts for every byte.
    EXPECT_GE(stats->records_applied, lead_records);
    EXPECT_EQ(records.size(), stats->records_applied);
    std::string_view rest = lead;
    for (size_t i = 0; i < lead_records && i < records.size(); ++i) {
      std::string_view payload;
      EXPECT_TRUE(
          frame::Split(&rest, kWalMagic, kWalMaxPayloadBytes, &payload).ok());
      EXPECT_EQ(records[i], payload);
    }
    if (records.size() > lead_records) got.payload = records[lead_records];
    EXPECT_EQ(stats->torn_tail, stats->discarded_bytes > 0);
    EXPECT_EQ(stats->valid_bytes + stats->discarded_bytes,
              lead.size() + bytes.size());
    got.discarded_bytes = stats->discarded_bytes;
    return got;
  };
  return f;
}

// The matrix twice: on the journal's first record, where a torn record
// leaves nothing to apply, and behind an intact record, which must apply.
TEST(WalTest, CorruptionMatrix) {
  const std::string dir = TempDir("wal_matrix");
  const std::string journal =
      ReadFileBytes(WriteJournal(dir, {{10, 11}, {20, 21}, {30, 31}}));
  const size_t rec = frame::kHeaderSize + 16 + 8 * 2;
  ASSERT_EQ(journal.size(), 3 * rec);
  const std::string path = dir + "/matrix.sfw";
  RunFrameCorruptionMatrix(WalRecordFormat(path, "", 0, journal.substr(0, rec),
                                           journal.substr(rec, rec)));
  RunFrameCorruptionMatrix(WalRecordFormat(path, journal.substr(0, rec), 1,
                                           journal.substr(rec, rec),
                                           journal.substr(2 * rec)));
}

// Appends a CRC-valid record `seqno` with a `payload_len`-byte payload of
// zero-valued items, streamed in chunks so the test never holds it whole.
void AppendZeroRecord(const std::string& path, uint64_t seqno,
                      uint64_t payload_len) {
  std::string head;
  ByteWriter w(&head);
  w.PutU64(seqno);
  w.PutU64((payload_len - 16) / 8);
  const std::string zeros(1 << 20, '\0');
  uint32_t crc = crc32c::Value(head.data(), head.size());
  for (uint64_t left = payload_len - 16; left > 0;) {
    const size_t n = static_cast<size_t>(std::min<uint64_t>(left, zeros.size()));
    crc = crc32c::Extend(crc, zeros.data(), n);
    left -= n;
  }
  const uint32_t masked_crc = crc32c::Mask(crc);
  char header[frame::kHeaderSize];
  std::memcpy(header, &kWalMagic, 8);
  std::memcpy(header + 8, &payload_len, 8);
  std::memcpy(header + 16, &masked_crc, 4);
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(header, sizeof(header));
  out.write(head.data(), static_cast<std::streamsize>(head.size()));
  for (uint64_t left = payload_len - 16; left > 0;) {
    const size_t n = static_cast<size_t>(std::min<uint64_t>(left, zeros.size()));
    out.write(zeros.data(), static_cast<std::streamsize>(n));
    left -= n;
  }
  ASSERT_TRUE(out.flush()) << path;
}

// The WAL's 64 MiB bound, with real bytes behind the declared length (in
// the matrix, a torn tail looks the same with or without a bound). A whole,
// CRC-valid record of exactly the bound applies; one 8 bytes longer is not
// applied but ends the intact prefix.
TEST(WalTest, RecordLengthBoundIsExact) {
  const std::string dir = TempDir("wal_bound");
  // The helper writes what WalWriter writes.
  const std::string small = dir + "/small.sfw";
  AppendZeroRecord(small, 1, 16 + 8 * 3);
  EXPECT_EQ(ReadFileBytes(small),
            ReadFileBytes(WriteJournal(dir, {{0, 0, 0}})));

  const auto replay = [](const std::string& path, uint64_t* items) {
    return ReplayWal(path, 0,
                     [items](uint64_t, std::span<const ItemId> batch) {
                       *items += batch.size();
                       return Status::OK();
                     });
  };

  const std::string at = dir + "/at.sfw";
  AppendZeroRecord(at, 1, kWalMaxPayloadBytes);
  uint64_t items = 0;
  auto stats = replay(at, &items);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->records_applied, 1u);
  EXPECT_EQ(items, (kWalMaxPayloadBytes - 16) / 8);
  EXPECT_FALSE(stats->torn_tail);
  std::filesystem::remove(at);

  // Behind an intact record, so the bound ends a prefix that applied.
  const std::string past = WriteJournal(TempDir("wal_bound_past"), {{5}});
  const uint64_t lead_size = std::filesystem::file_size(past);
  AppendZeroRecord(past, 2, kWalMaxPayloadBytes + 8);
  items = 0;
  stats = replay(past, &items);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->records_applied, 1u);
  EXPECT_EQ(items, 1u);
  EXPECT_TRUE(stats->torn_tail);
  EXPECT_EQ(stats->valid_bytes, lead_size);
  EXPECT_EQ(stats->discarded_bytes,
            frame::kHeaderSize + kWalMaxPayloadBytes + 8);
  std::filesystem::remove(past);
}

// Records at or below the snapshot's base seqno are the crash window
// between snapshot publish and journal truncation: skipped exactly-once.
TEST(WalTest, DuplicateSequencesBelowBaseAreSkipped) {
  const std::string dir = TempDir("wal_dup");
  const std::string path =
      WriteJournal(dir, {{1}, {2}, {3}, {4}});
  Replayed got;
  auto stats = Replay(path, 2, &got);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->duplicates_skipped, 2u);
  EXPECT_EQ(stats->records_applied, 2u);
  EXPECT_EQ(stats->last_seqno, 4u);
  EXPECT_EQ(got.seqnos, (std::vector<uint64_t>{3, 4}));

  // Base beyond the whole journal: everything is a duplicate.
  Replayed none;
  auto all_dup = Replay(path, 10, &none);
  ASSERT_TRUE(all_dup.ok());
  EXPECT_EQ(all_dup->duplicates_skipped, 4u);
  EXPECT_EQ(all_dup->records_applied, 0u);
  EXPECT_EQ(all_dup->last_seqno, 10u);
}

TEST(WalTest, SequenceGapIsCorruption) {
  const std::string dir = TempDir("wal_gap");
  const std::string path = dir + "/journal.sfw";
  {
    auto wal = WalWriter::Open(path, WalFsync::kNever);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(1, std::vector<ItemId>{1}).ok());
    ASSERT_TRUE(wal->Append(3, std::vector<ItemId>{3}).ok());  // gap: no 2
  }
  Replayed got;
  EXPECT_TRUE(Replay(path, 0, &got).status().IsCorruption());
}

// A CRC-valid record whose payload is malformed was written whole — that
// is not a torn tail, it is a bug or tampering, and it fails loudly.
TEST(WalTest, CrcValidMalformedPayloadIsCorruption) {
  const std::string dir = TempDir("wal_malformed");
  const std::string path = dir + "/journal.sfw";
  std::string payload;
  ByteWriter pw(&payload);
  pw.PutU64(1);  // seqno
  pw.PutU64(5);  // claims 5 items...
  pw.PutU64(42);  // ...but carries 1
  std::string record;
  frame::Append(kWalMagic, payload, &record);
  WriteFileBytes(path, record);
  Replayed got;
  EXPECT_TRUE(Replay(path, 0, &got).status().IsCorruption());
}

TEST(WalTest, TruncateDiscardsEverything) {
  const std::string dir = TempDir("wal_truncate");
  const std::string path = dir + "/journal.sfw";
  auto wal = WalWriter::Open(path, WalFsync::kAlways);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->Append(1, std::vector<ItemId>{1, 2, 3}).ok());
  ASSERT_TRUE(wal->Truncate().ok());
  ASSERT_TRUE(wal->Append(2, std::vector<ItemId>{9}).ok());
  Replayed got;
  auto stats = Replay(path, 1, &got);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->records_applied, 1u);
  EXPECT_EQ(got.items, (std::vector<ItemId>{9}));
}

// ---------------------------------------------------------------------------
// WalFsync::kBatch: the bounded ack-durability window.
// ---------------------------------------------------------------------------

TEST(WalBatchFsyncTest, PolicyNameRoundTrips) {
  EXPECT_STREQ(WalFsyncName(WalFsync::kBatch), "batch");
  auto parsed = WalFsyncFromName("batch");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, WalFsync::kBatch);
  EXPECT_TRUE(WalFsyncFromName("sometimes").status().IsInvalidArgument());
}

TEST(WalBatchFsyncTest, FsyncsOnTheBatchCadenceExactly) {
  const std::string dir = TempDir("wal_batch_cadence");
  auto wal = WalWriter::Open(dir + "/journal.sfw", WalFsync::kBatch);
  ASSERT_TRUE(wal.ok());
  const uint64_t appends = 2 * kWalBatchFsyncEvery + 4;  // 20 when every=8
  for (uint64_t seqno = 1; seqno <= appends; ++seqno) {
    ASSERT_TRUE(wal->Append(seqno, std::vector<ItemId>{seqno}).ok());
    // The window invariant after EVERY append, not just at the end: the
    // page cache never holds a full batch of acknowledged records.
    ASSERT_LT(wal->unsynced_appends(), kWalBatchFsyncEvery) << seqno;
    ASSERT_EQ(wal->fsyncs(), seqno / kWalBatchFsyncEvery) << seqno;
  }
  EXPECT_EQ(wal->fsyncs(), appends / kWalBatchFsyncEvery);
  EXPECT_EQ(wal->unsynced_appends(), appends % kWalBatchFsyncEvery);
}

TEST(WalBatchFsyncTest, AlwaysAndNeverAreTheCadenceExtremes) {
  const std::string dir = TempDir("wal_batch_extremes");
  auto always = WalWriter::Open(dir + "/always.sfw", WalFsync::kAlways);
  auto never = WalWriter::Open(dir + "/never.sfw", WalFsync::kNever);
  ASSERT_TRUE(always.ok() && never.ok());
  for (uint64_t seqno = 1; seqno <= 5; ++seqno) {
    ASSERT_TRUE(always->Append(seqno, std::vector<ItemId>{seqno}).ok());
    ASSERT_TRUE(never->Append(seqno, std::vector<ItemId>{seqno}).ok());
  }
  EXPECT_EQ(always->fsyncs(), 5u);
  EXPECT_EQ(always->unsynced_appends(), 0u);
  EXPECT_EQ(never->fsyncs(), 0u);
  EXPECT_EQ(never->unsynced_appends(), 5u);
}

TEST(WalBatchFsyncTest, FsyncFailpointFiresAtTheBatchBoundaryOnly) {
  const std::string dir = TempDir("wal_batch_failpoint");
  auto wal = WalWriter::Open(dir + "/journal.sfw", WalFsync::kBatch);
  ASSERT_TRUE(wal.ok());
  ScopedFailpoints failpoints("wal.fsync=error*1", /*seed=*/1);
  ASSERT_TRUE(failpoints.status().ok());
  // The first batch-1 appends never reach the fsync site; the batch-th
  // does and eats the injected error.
  for (uint64_t seqno = 1; seqno < kWalBatchFsyncEvery; ++seqno) {
    ASSERT_TRUE(wal->Append(seqno, std::vector<ItemId>{seqno}).ok()) << seqno;
  }
  const Status boundary =
      wal->Append(kWalBatchFsyncEvery, std::vector<ItemId>{8});
  EXPECT_TRUE(boundary.IsIoError()) << boundary.ToString();
  // Every record was written and flushed before the failed barrier: the
  // journal itself replays cleanly (the caller poisons the store instead).
  Replayed got;
  auto stats = Replay(dir + "/journal.sfw", 0, &got);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records_applied, kWalBatchFsyncEvery);
}

// ---------------------------------------------------------------------------
// TenantStore: snapshot + journal recovery.
// ---------------------------------------------------------------------------

TenantSpec TestSpec() {
  TenantSpec spec;
  spec.depth = 4;
  spec.width = 256;
  spec.seed = 77;
  spec.threads = 2;
  spec.batch_items = 128;
  spec.queue_batches = 4;
  spec.push_timeout_ms = 0;
  spec.policy = OverflowPolicy::kShed;
  spec.tracked = 32;
  return spec;
}

CountSketchParams TestParams() {
  CountSketchParams params;
  params.depth = 4;
  params.width = 256;
  params.seed = 77;
  return params;
}

TEST(TenantStoreTest, CreateAppendReopenReplays) {
  const std::string dir = TempDir("store_roundtrip") + "/t";
  {
    auto store = TenantStore::Create(dir, TestSpec(), TestParams(),
                                     WalFsync::kAlways, /*every=*/1 << 20);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Append(std::vector<ItemId>{1, 2, 3}).ok());
    ASSERT_TRUE((*store)->Append(std::vector<ItemId>{2, 3, 4, 4}).ok());
    EXPECT_EQ((*store)->last_seqno(), 2u);
    EXPECT_EQ((*store)->durable_items(), 7u);
  }  // "crash": no snapshot since create, the journal carries everything

  auto opened = TenantStore::Open(dir, WalFsync::kAlways, 1 << 20);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened->recovery.recovered);
  EXPECT_EQ(opened->recovery.snapshot_seqno, 0u);
  EXPECT_EQ(opened->recovery.replayed_records, 2u);
  EXPECT_EQ(opened->recovery.replayed_items, 7u);
  EXPECT_EQ(opened->recovery.base_items, 7u);
  EXPECT_FALSE(opened->recovery.torn_tail);

  // The recovered sketch is the exact linear accumulation of the journal.
  auto reference = CountSketch::Make(TestParams());
  ASSERT_TRUE(reference.ok());
  for (const ItemId q : {1, 2, 3, 2, 3, 4, 4}) reference->Add(q, 1);
  std::string got_bytes, want_bytes;
  opened->sketch.SerializeTo(&got_bytes);
  reference->SerializeTo(&want_bytes);
  EXPECT_EQ(got_bytes, want_bytes);

  // Recovery re-snapshots and truncates: a second open replays nothing.
  opened->store.reset();
  auto again = TenantStore::Open(dir, WalFsync::kAlways, 1 << 20);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->recovery.snapshot_seqno, 2u);
  EXPECT_EQ(again->recovery.replayed_records, 0u);
  EXPECT_EQ(again->recovery.base_items, 7u);
  got_bytes.clear();
  again->sketch.SerializeTo(&got_bytes);
  EXPECT_EQ(got_bytes, want_bytes);
}

TEST(TenantStoreTest, CreateWithBatchFsyncReplays) {
  // The full durability path under kBatch: appends land in the journal
  // (flushed, possibly unsynced), a process "crash" preserves them, and
  // recovery replays the exact sketch — kBatch's weaker window only
  // matters against machine crashes, which tests cannot fake.
  const std::string dir = TempDir("store_batch") + "/t";
  const uint64_t appends = 2 * kWalBatchFsyncEvery + 3;
  {
    auto store = TenantStore::Create(dir, TestSpec(), TestParams(),
                                     WalFsync::kBatch, /*every=*/1 << 20);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (uint64_t seqno = 1; seqno <= appends; ++seqno) {
      ASSERT_TRUE((*store)->Append(std::vector<ItemId>{seqno % 5}).ok());
    }
  }  // crash with a partially-unsynced tail in the page cache

  auto opened = TenantStore::Open(dir, WalFsync::kBatch, 1 << 20);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened->recovery.recovered);
  EXPECT_EQ(opened->recovery.replayed_records, appends);
  auto reference = CountSketch::Make(TestParams());
  ASSERT_TRUE(reference.ok());
  for (uint64_t seqno = 1; seqno <= appends; ++seqno) {
    reference->Add(seqno % 5, 1);
  }
  std::string got_bytes, want_bytes;
  opened->sketch.SerializeTo(&got_bytes);
  reference->SerializeTo(&want_bytes);
  EXPECT_EQ(got_bytes, want_bytes);
}

TEST(TenantStoreTest, SnapshotWithNoJournalRecovers) {
  const std::string dir = TempDir("store_nojournal") + "/t";
  {
    auto store = TenantStore::Create(dir, TestSpec(), TestParams(),
                                     WalFsync::kAlways, 1 << 20);
    ASSERT_TRUE(store.ok());
  }
  ASSERT_TRUE(std::filesystem::remove(TenantStore::JournalPath(dir)));
  auto opened = TenantStore::Open(dir, WalFsync::kAlways, 1 << 20);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->recovery.replayed_records, 0u);
  EXPECT_EQ(opened->recovery.base_items, 0u);
}

// A journal with no snapshot has no base state: silent re-creation would
// hide data loss, so recovery must refuse.
TEST(TenantStoreTest, JournalWithoutSnapshotIsRefused) {
  const std::string dir = TempDir("store_nosnap") + "/t";
  std::filesystem::create_directories(dir);
  WriteJournal(dir, {{1, 2, 3}});
  EXPECT_FALSE(TenantStore::Open(dir, WalFsync::kAlways, 1 << 20).ok());
}

TEST(TenantStoreTest, CreateRefusesExistingSnapshot) {
  const std::string dir = TempDir("store_exists") + "/t";
  ASSERT_TRUE(TenantStore::Create(dir, TestSpec(), TestParams(),
                                  WalFsync::kAlways, 1 << 20)
                  .ok());
  auto second = TenantStore::Create(dir, TestSpec(), TestParams(),
                                    WalFsync::kAlways, 1 << 20);
  EXPECT_TRUE(second.status().IsInvalidArgument());
}

TEST(TenantStoreTest, TornJournalTailRecoversPrefixThenHeals) {
  const std::string dir = TempDir("store_torn") + "/t";
  {
    auto store = TenantStore::Create(dir, TestSpec(), TestParams(),
                                     WalFsync::kAlways, 1 << 20);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Append(std::vector<ItemId>{1, 2}).ok());
    ASSERT_TRUE((*store)->Append(std::vector<ItemId>{3}).ok());
  }
  const std::string journal = TenantStore::JournalPath(dir);
  const std::string full = ReadFileBytes(journal);
  WriteFileBytes(journal, full.substr(0, full.size() - 3));  // tear record 2

  auto opened = TenantStore::Open(dir, WalFsync::kAlways, 1 << 20);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened->recovery.torn_tail);
  EXPECT_EQ(opened->recovery.replayed_records, 1u);
  EXPECT_EQ(opened->recovery.base_items, 2u);
  EXPECT_GT(opened->recovery.discarded_bytes, 0u);

  // Recovery re-snapshotted and truncated: the torn bytes are gone, new
  // appends land on a clean journal.
  ASSERT_TRUE(opened->store->Append(std::vector<ItemId>{7}).ok());
  opened->store.reset();
  auto again = TenantStore::Open(dir, WalFsync::kAlways, 1 << 20);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_FALSE(again->recovery.torn_tail);
  EXPECT_EQ(again->recovery.replayed_records, 1u);
  EXPECT_EQ(again->recovery.base_items, 3u);
}

TEST(TenantStoreTest, BitFlippedSnapshotIsRefused) {
  const std::string dir = TempDir("store_snapflip") + "/t";
  ASSERT_TRUE(TenantStore::Create(dir, TestSpec(), TestParams(),
                                  WalFsync::kAlways, 1 << 20)
                  .ok());
  const std::string snap = TenantStore::SnapshotPath(dir);
  std::string data = ReadFileBytes(snap);
  data[data.size() / 2] ^= 0x20;
  WriteFileBytes(snap, data);
  EXPECT_FALSE(TenantStore::Open(dir, WalFsync::kAlways, 1 << 20).ok());
}

// ---------------------------------------------------------------------------
// Whole-service recovery: ledger conservation + bit-identity across a
// simulated crash (the service object dies, the data dir survives).
// ---------------------------------------------------------------------------

int64_t JsonField(const std::string& json, const std::string& scope,
                  const std::string& field) {
  const size_t at = json.find("\"" + scope + "\":{");
  if (at == std::string::npos) return -1;
  const size_t field_at = json.find("\"" + field + "\":", at);
  if (field_at == std::string::npos || field_at > json.find('}', at)) {
    return -1;
  }
  return std::strtoll(json.c_str() + field_at + field.size() + 3, nullptr, 10);
}

Response Handle1(SketchService& svc, Opcode op, const std::string& tenant,
                 std::vector<ItemId> items = {}) {
  Request req;
  req.op = op;
  req.tenant = tenant;
  req.items = std::move(items);
  if (op == Opcode::kCreateTenant) req.spec = TestSpec();
  if (op == Opcode::kTopK) req.k = 5;
  return svc.Handle(req);
}

TEST(ServiceRecoveryTest, RecoverReplaysLedgerAndSketchExactly) {
  const std::string data_dir = TempDir("svc_recover");
  ServiceOptions options;
  options.data_dir = data_dir;
  options.fsync = WalFsync::kAlways;
  options.snapshot_every_items = 1 << 20;  // force journal-tail recovery

  std::vector<ItemId> stream;
  for (ItemId q = 0; q < 3000; ++q) stream.push_back(q % 97);

  {
    SketchService svc(options);
    ASSERT_TRUE(svc.Recover().ok());
    ASSERT_TRUE(Handle1(svc, Opcode::kCreateTenant, "t").ok());
    for (size_t begin = 0; begin < stream.size(); begin += 500) {
      const size_t len = std::min<size_t>(500, stream.size() - begin);
      ASSERT_TRUE(Handle1(svc, Opcode::kIngest, "t",
                          std::vector<ItemId>(stream.begin() + begin,
                                              stream.begin() + begin + len))
                      .ok());
    }
  }  // service dies without sealing; the journal carries every batch

  SketchService svc(options);
  ASSERT_TRUE(svc.Recover().ok());
  EXPECT_TRUE(svc.recovery_failures().empty());
  EXPECT_EQ(svc.TenantCount(), 1u);

  const Response info = Handle1(svc, Opcode::kRecoveryInfo, "t");
  ASSERT_TRUE(info.ok()) << info.message;
  EXPECT_NE(info.blob.find("\"recovered\":true"), std::string::npos);
  EXPECT_NE(info.blob.find("\"replayed_records\":6"), std::string::npos);

  // Conservation across the crash: the recovered prefix is base_ingested.
  const std::string tenants = svc.TenantsJson();
  const int64_t offered = JsonField(tenants, "t", "offered_items");
  const int64_t rejected = JsonField(tenants, "t", "rejected_items");
  const int64_t ingested = JsonField(tenants, "t", "items_ingested");
  const int64_t dropped = JsonField(tenants, "t", "dropped_items");
  const int64_t base = JsonField(tenants, "t", "base_ingested");
  EXPECT_EQ(base, 3000);
  EXPECT_EQ(offered - rejected, base + ingested + dropped);

  // Bit-identity: the recovered serving sketch equals a sequential run.
  const Response exported = Handle1(svc, Opcode::kExport, "t");
  ASSERT_TRUE(exported.ok()) << exported.message;
  auto recovered = CountSketch::Deserialize(exported.blob);
  ASSERT_TRUE(recovered.ok());
  auto reference = CountSketch::Make(TestParams());
  ASSERT_TRUE(reference.ok());
  for (const ItemId q : stream) reference->Add(q, 1);
  std::string got_bytes, want_bytes;
  recovered->SerializeTo(&got_bytes);
  reference->SerializeTo(&want_bytes);
  EXPECT_EQ(got_bytes, want_bytes);

  // The recovered tenant keeps serving and ingesting.
  ASSERT_TRUE(Handle1(svc, Opcode::kIngest, "t", {1, 2, 3}).ok());
  EXPECT_TRUE(Handle1(svc, Opcode::kTopK, "t").ok());
}

TEST(ServiceRecoveryTest, SealedTenantRecoversReadOnly) {
  const std::string data_dir = TempDir("svc_sealed");
  ServiceOptions options;
  options.data_dir = data_dir;

  {
    SketchService svc(options);
    ASSERT_TRUE(svc.Recover().ok());
    ASSERT_TRUE(Handle1(svc, Opcode::kCreateTenant, "t").ok());
    ASSERT_TRUE(Handle1(svc, Opcode::kIngest, "t", {5, 5, 6}).ok());
    ASSERT_TRUE(Handle1(svc, Opcode::kSeal, "t").ok());
  }

  SketchService svc(options);
  ASSERT_TRUE(svc.Recover().ok());
  EXPECT_TRUE(Handle1(svc, Opcode::kTopK, "t").ok());
  const Response rejected = Handle1(svc, Opcode::kIngest, "t", {7});
  EXPECT_FALSE(rejected.ok());
  EXPECT_NE(rejected.message.find("sealed"), std::string::npos);
}

TEST(ServiceRecoveryTest, CorruptTenantIsReportedNotRecreated) {
  const std::string data_dir = TempDir("svc_corrupt");
  ServiceOptions options;
  options.data_dir = data_dir;

  {
    SketchService svc(options);
    ASSERT_TRUE(svc.Recover().ok());
    ASSERT_TRUE(Handle1(svc, Opcode::kCreateTenant, "t").ok());
    ASSERT_TRUE(Handle1(svc, Opcode::kIngest, "t", {1, 2, 3}).ok());
  }
  const std::string snap = TenantStore::SnapshotPath(data_dir + "/t");
  std::string data = ReadFileBytes(snap);
  data[data.size() - 5] ^= 0x01;
  WriteFileBytes(snap, data);

  SketchService svc(options);
  ASSERT_TRUE(svc.Recover().ok());  // service survives; the tenant does not
  EXPECT_EQ(svc.TenantCount(), 0u);
  const auto failures = svc.recovery_failures();
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_TRUE(failures.count("t"));
  // The damaged directory still holds a snapshot, so re-creating the name
  // is refused instead of silently shadowing the broken state.
  EXPECT_FALSE(Handle1(svc, Opcode::kCreateTenant, "t").ok());
}

TEST(ServiceRecoveryTest, DuplicateJournalRecordsAreDedupedOnReplay) {
  // Simulate the crash window between snapshot publish and journal
  // truncation: the snapshot covers seqnos 1..2, the journal still holds
  // 1..3. Only record 3 may be applied.
  const std::string dir = TempDir("svc_dup") + "/t";
  {
    auto store = TenantStore::Create(dir, TestSpec(), TestParams(),
                                     WalFsync::kAlways, 1 << 20);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Append(std::vector<ItemId>{1}).ok());
    ASSERT_TRUE((*store)->Append(std::vector<ItemId>{2}).ok());
    LedgerSample ledger;
    ledger.candidate_capacity = TestSpec().tracked;
    ASSERT_TRUE((*store)->WriteSnapshot(ledger).ok());
    // WriteSnapshot truncated the journal; re-append records 1..3 as the
    // pre-truncation file would have held them.
  }
  {
    auto wal = WalWriter::Open(TenantStore::JournalPath(dir),
                               WalFsync::kAlways);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(1, std::vector<ItemId>{1}).ok());
    ASSERT_TRUE(wal->Append(2, std::vector<ItemId>{2}).ok());
    ASSERT_TRUE(wal->Append(3, std::vector<ItemId>{3}).ok());
  }
  auto opened = TenantStore::Open(dir, WalFsync::kAlways, 1 << 20);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->recovery.duplicates_skipped, 2u);
  EXPECT_EQ(opened->recovery.replayed_records, 1u);
  EXPECT_EQ(opened->recovery.base_items, 3u);

  auto reference = CountSketch::Make(TestParams());
  ASSERT_TRUE(reference.ok());
  for (const ItemId q : {1, 2, 3}) reference->Add(q, 1);
  std::string got_bytes, want_bytes;
  opened->sketch.SerializeTo(&got_bytes);
  reference->SerializeTo(&want_bytes);
  EXPECT_EQ(got_bytes, want_bytes);
}

TEST(ServiceRecoveryTest, RecoveredCandidatesMatchAnUninterruptedTenant) {
  // Sequential ingests cross several snapshots and the crash leaves a
  // journal tail, so recovery restores the candidate triples from a
  // snapshot and replays the tail through BatchAdd. The recovered tenant
  // must then hold exactly the candidates, and give exactly the topk, of
  // a tenant that never went down.
  ServiceOptions crashed;
  crashed.data_dir = TempDir("svc_cands_crashed");
  crashed.fsync = WalFsync::kNever;
  crashed.snapshot_every_items = 1200;
  ServiceOptions steady = crashed;
  steady.data_dir = TempDir("svc_cands_steady");

  // Many more distinct items than TestSpec().tracked, so batches evict.
  std::vector<std::vector<ItemId>> requests;
  uint64_t x = 12345;
  for (int r = 0; r < 14; ++r) {
    std::vector<ItemId> items;
    for (int i = 0; i < 400; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      const uint64_t u = x >> 40;  // 24 random bits
      items.push_back(u % 7 == 0 ? u % 5 : u % 3000);
    }
    requests.push_back(std::move(items));
  }
  constexpr size_t kBeforeCrash = 11;

  SketchService reference(steady);
  ASSERT_TRUE(reference.Recover().ok());
  ASSERT_TRUE(Handle1(reference, Opcode::kCreateTenant, "t").ok());
  for (const std::vector<ItemId>& items : requests) {
    ASSERT_TRUE(Handle1(reference, Opcode::kIngest, "t", items).ok());
  }
  {
    SketchService svc(crashed);
    ASSERT_TRUE(svc.Recover().ok());
    ASSERT_TRUE(Handle1(svc, Opcode::kCreateTenant, "t").ok());
    for (size_t r = 0; r < kBeforeCrash; ++r) {
      ASSERT_TRUE(Handle1(svc, Opcode::kIngest, "t", requests[r]).ok());
    }
  }  // dies without sealing

  SketchService svc(crashed);
  ASSERT_TRUE(svc.Recover().ok());
  ASSERT_TRUE(svc.recovery_failures().empty());
  const Response info = Handle1(svc, Opcode::kRecoveryInfo, "t");
  ASSERT_TRUE(info.ok()) << info.message;
  EXPECT_EQ(info.blob.find("\"snapshot_seqno\":0,"), std::string::npos)
      << "recovery must start from a snapshot: " << info.blob;
  EXPECT_EQ(info.blob.find("\"replayed_records\":0,"), std::string::npos)
      << "recovery must replay a journal tail: " << info.blob;
  for (size_t r = kBeforeCrash; r < requests.size(); ++r) {
    ASSERT_TRUE(Handle1(svc, Opcode::kIngest, "t", requests[r]).ok());
  }

  // Sealed, both tenants answer from the exact final sketch.
  ASSERT_TRUE(Handle1(reference, Opcode::kSeal, "t").ok());
  ASSERT_TRUE(Handle1(svc, Opcode::kSeal, "t").ok());
  for (const uint64_t k : {uint64_t{5}, uint64_t{TestSpec().tracked}}) {
    Request topk;
    topk.op = Opcode::kTopK;
    topk.tenant = "t";
    topk.k = k;
    const Response want = reference.Handle(topk);
    const Response got = svc.Handle(topk);
    ASSERT_TRUE(want.ok() && got.ok());
    EXPECT_EQ(got.entries, want.entries) << "topk " << k;
  }

  // Sealing wrote each tenant's candidate triples into its snapshot.
  const size_t tracked = TestSpec().tracked;
  auto recovered = TenantStore::Open(crashed.data_dir + "/t",
                                     WalFsync::kNever, 1 << 20);
  auto uninterrupted = TenantStore::Open(steady.data_dir + "/t",
                                         WalFsync::kNever, 1 << 20);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().ToString();
  EXPECT_EQ(recovered->candidates.MonitoredCount(), tracked);
  EXPECT_EQ(recovered->candidates.Candidates(tracked),
            uninterrupted->candidates.Candidates(tracked));
}

}  // namespace
}  // namespace streamfreq
