// Per-tenant append-only write-ahead journal for `sfq serve`.
//
// A journal file is a sequence of self-delimiting records, each one
// util/frame.h frame under kWalMagic ("SFQWAL01") bounded by
// kWalMaxPayloadBytes, whose payload is
//
//   u64 seqno | u64 item count | count x u64 items
//
// Sequence numbers are assigned by the service, start at 1, and increase by
// exactly 1 per accepted ingest batch; the tenant snapshot records the
// highest sequence number it covers, so replay can skip already-applied
// records (duplicate dedup) and recovery is exactly-once.
//
// Torn-tail tolerance: a crash mid-append leaves a prefix of the final
// record on disk. Replay verifies each record's frame before applying it
// and stops at the first truncated or corrupt one — the torn tail is the
// un-acknowledged batch in flight at the crash, which the at-most-once
// client contract already treats as ambiguous. A record that fails its CRC
// *before* a valid record would mean silent reordering, so replay never
// skips over damage: everything after the first bad byte is discarded and
// reported.
//
// Durability knob: WalFsync::kAlways fsyncs after every append (a crashed
// *machine* loses nothing that was acknowledged); kNever leaves flushing to
// the page cache (a crashed *process* still loses nothing, since the bytes
// survive in the kernel); kBatch fsyncs every kWalBatchFsyncEvery-th append
// — the middle ground, with an ack-durability window of at most
// kWalBatchFsyncEvery - 1 acknowledged records against a machine crash and
// still zero against a process crash. The chaos kill-restart campaign runs
// all three (process kills preserve the page cache, so acked <= offered
// must hold for every policy); the arithmetic window itself is asserted at
// the WalWriter level in tests/server_recovery_test.cc.
//
// Lint note: writes go through std::ofstream (the blocking-under-lock rule
// whitelists method-call writes); the separate descriptor exists only for
// fsync(2), which is not a blocking-listed call.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <span>
#include <string>

#include "server/net.h"
#include "stream/types.h"
#include "util/result.h"

namespace streamfreq {

/// Magic tag of journal records ("SFQWAL01").
inline constexpr uint64_t kWalMagic = 0x31304C4157514653ULL;
/// Hard bound on one record's payload (the same 64 MiB as an RPC frame).
inline constexpr uint64_t kWalMaxPayloadBytes = uint64_t{1} << 26;

/// When appends are forced to stable storage.
enum class WalFsync : uint8_t {
  kAlways = 0,  ///< fsync after every append (survives machine crash)
  kNever = 1,   ///< page-cache only (survives process crash)
  kBatch = 2,   ///< fsync every kWalBatchFsyncEvery appends (bounded window)
};

/// Batch-fsync cadence: under WalFsync::kBatch an fsync lands on every
/// N-th append, so at most N-1 acknowledged records sit in the page cache.
inline constexpr uint64_t kWalBatchFsyncEvery = 8;

const char* WalFsyncName(WalFsync fsync);
Result<WalFsync> WalFsyncFromName(std::string_view name);

/// What replay found in a journal. `last_seqno` is the highest sequence
/// number applied or skipped (== the base when the journal adds nothing).
struct WalReplayStats {
  uint64_t records_applied = 0;
  uint64_t duplicates_skipped = 0;  ///< records at or below the base seqno
  uint64_t last_seqno = 0;
  uint64_t valid_bytes = 0;      ///< bytes of intact records
  uint64_t discarded_bytes = 0;  ///< bytes after the first damaged record
  bool torn_tail = false;        ///< replay stopped before end of file
};

/// Append-only journal writer. Not internally synchronized — the owning
/// TenantStore serializes appends under its own mutex.
class WalWriter {
 public:
  /// Opens (creating if absent) the journal at `path` for appending.
  static Result<WalWriter> Open(std::string path, WalFsync fsync);

  WalWriter(WalWriter&&) = default;
  WalWriter& operator=(WalWriter&&) = default;

  /// Appends one record and (under kAlways) forces it to disk. On failure
  /// the journal tail is untrusted: the caller must stop appending (the
  /// service poisons the tenant store). Carries the `wal.append` and
  /// `wal.fsync` failpoints, including process death mid-append.
  Status Append(uint64_t seqno, std::span<const ItemId> items);

  /// Discards every record (called after a snapshot publish made them
  /// redundant) and reopens for appending.
  Status Truncate();

  const std::string& path() const { return path_; }

  /// fsync(2) calls issued since Open/Truncate. Under kBatch this is
  /// floor(appends / kWalBatchFsyncEvery) — the cadence the recovery test
  /// asserts.
  uint64_t fsyncs() const { return fsyncs_; }

  /// Appends not yet covered by an fsync — the ack-durability window a
  /// machine crash could lose (always 0 under kAlways).
  uint64_t unsynced_appends() const { return unsynced_appends_; }

 private:
  WalWriter(std::string path, WalFsync fsync) noexcept
      : path_(std::move(path)), fsync_(fsync) {}

  Status OpenStreams(bool truncate);
  Status Fsync();

  std::string path_;
  WalFsync fsync_;
  std::ofstream out_;
  OwnedFd sync_fd_;  ///< separate descriptor for fsync(2) only
  uint64_t fsyncs_ = 0;
  uint64_t unsynced_appends_ = 0;
};

/// Applies one journal record during recovery.
using WalReplayFn =
    std::function<Status(uint64_t seqno, std::span<const ItemId> items)>;

/// Replays the journal at `path`, invoking `apply` for every intact record
/// with seqno > `base_seqno` (records at or below the base are duplicates
/// the snapshot already covers). A missing file is an empty journal. A
/// sequence gap or regression beyond the base means the file cannot be the
/// suffix of the snapshot's history and fails with Corruption; a damaged or
/// truncated tail stops replay and is reported via the stats.
Result<WalReplayStats> ReplayWal(const std::string& path, uint64_t base_seqno,
                                 const WalReplayFn& apply);

}  // namespace streamfreq
