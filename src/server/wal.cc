#include "server/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <iterator>
#include <vector>

#include "util/bytes.h"
#include "util/failpoint.h"
#include "util/frame.h"

namespace streamfreq {

const char* WalFsyncName(WalFsync fsync) {
  switch (fsync) {
    case WalFsync::kAlways:
      return "always";
    case WalFsync::kNever:
      return "never";
    case WalFsync::kBatch:
      return "batch";
  }
  return "unknown";
}

Result<WalFsync> WalFsyncFromName(std::string_view name) {
  if (name == "always") return WalFsync::kAlways;
  if (name == "never") return WalFsync::kNever;
  if (name == "batch") return WalFsync::kBatch;
  return Status::InvalidArgument("wal: unknown fsync policy: " +
                                 std::string(name));
}

Result<WalWriter> WalWriter::Open(std::string path, WalFsync fsync) {
  WalWriter writer(std::move(path), fsync);
  STREAMFREQ_RETURN_NOT_OK(writer.OpenStreams(/*truncate=*/false));
  return writer;
}

Status WalWriter::OpenStreams(bool truncate) {
  if (out_.is_open()) out_.close();
  out_.clear();
  sync_fd_.Reset();
  const std::ios::openmode mode =
      std::ios::binary | (truncate ? std::ios::trunc : std::ios::app);
  out_.open(path_, mode);
  if (!out_) return Status::IoError("wal: cannot open for append: " + path_);
  const int fd = ::open(path_.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("wal: cannot open sync descriptor: " + path_);
  }
  sync_fd_ = OwnedFd(fd);
  fsyncs_ = 0;
  unsynced_appends_ = 0;
  return Status::OK();
}

Status WalWriter::Append(uint64_t seqno, std::span<const ItemId> items) {
  std::string payload;
  ByteWriter pw(&payload);
  pw.PutU64(seqno);
  pw.PutU64(items.size());
  for (const ItemId id : items) pw.PutU64(id);

  std::string record;
  frame::Append(kWalMagic, payload, &record);

  if (const FailDecision fp = SFQ_FAILPOINT("wal.append"); fp) {
    MaybeDieAtFailpoint(fp);  // power cut before the record lands
    if (fp.action == FailAction::kTorn) {
      // Power-cut semantics: a prefix of the record reaches the file. The
      // store must treat the journal as poisoned afterwards; replay stops
      // at this torn tail.
      size_t keep = fp.param == 0 ? record.size() / 2 : fp.param;
      keep = keep < record.size() ? keep : record.size();
      out_.write(record.data(), static_cast<std::streamsize>(keep));
      out_.flush();
    }
    return Status::IoError("injected failure: wal.append: " + path_);
  }

  out_.write(record.data(), static_cast<std::streamsize>(record.size()));
  out_.flush();
  if (!out_) return Status::IoError("wal: append failed: " + path_);
  ++unsynced_appends_;

  const bool barrier =
      fsync_ == WalFsync::kAlways ||
      (fsync_ == WalFsync::kBatch && unsynced_appends_ >= kWalBatchFsyncEvery);
  if (barrier) return Fsync();
  return Status::OK();
}

Status WalWriter::Fsync() {
  if (const FailDecision fp = SFQ_FAILPOINT("wal.fsync"); fp) {
    // Death here is the interesting case: every unsynced record — one
    // under kAlways, up to kWalBatchFsyncEvery under kBatch — is in the
    // page cache (a SIGKILL preserves it) but was never forced to disk.
    MaybeDieAtFailpoint(fp);
    if (fp.action == FailAction::kError) {
      return Status::IoError("injected failure: wal.fsync: " + path_);
    }
  }
  if (::fsync(sync_fd_.get()) != 0) {
    return Status::IoError("wal: fsync failed: " + path_);
  }
  ++fsyncs_;
  unsynced_appends_ = 0;
  return Status::OK();
}

Status WalWriter::Truncate() { return OpenStreams(/*truncate=*/true); }

Result<WalReplayStats> ReplayWal(const std::string& path, uint64_t base_seqno,
                                 const WalReplayFn& apply) {
  WalReplayStats stats;
  stats.last_seqno = base_seqno;

  std::ifstream in(path, std::ios::binary);
  if (!in) return stats;  // no journal = nothing past the snapshot

  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::string_view rest = data;
  std::vector<ItemId> scratch;
  while (!rest.empty()) {
    // Any truncation, magic mismatch, implausible length, or checksum
    // failure ends the intact prefix: everything from here on is the torn
    // tail.
    std::string_view payload;
    const size_t before = rest.size();
    if (!frame::Split(&rest, kWalMagic, kWalMaxPayloadBytes, &payload).ok()) {
      break;
    }

    // A CRC-valid record with a malformed payload is not a torn write —
    // the checksum vouches these bytes were written whole. Fail loudly.
    ByteReader r(payload);
    uint64_t seqno, count;
    STREAMFREQ_RETURN_NOT_OK(r.GetU64(&seqno));
    STREAMFREQ_RETURN_NOT_OK(r.GetU64(&count));
    if (count * 8 != r.remaining()) {
      return Status::Corruption("wal: record item count mismatch: " + path);
    }

    if (seqno <= base_seqno) {
      // The snapshot already covers this batch (crash between snapshot
      // publish and journal truncation): skip, exactly-once.
      ++stats.duplicates_skipped;
    } else {
      if (seqno != stats.last_seqno + 1) {
        return Status::Corruption("wal: sequence gap at record " +
                                  std::to_string(seqno) + ": " + path);
      }
      scratch.resize(static_cast<size_t>(count));
      for (ItemId& id : scratch) {
        STREAMFREQ_RETURN_NOT_OK(r.GetU64(&id));
      }
      STREAMFREQ_RETURN_NOT_OK(
          apply(seqno, std::span<const ItemId>(scratch)));
      ++stats.records_applied;
      stats.last_seqno = seqno;
    }
    stats.valid_bytes += before - rest.size();
  }
  if (!rest.empty()) {
    stats.torn_tail = true;
    stats.discarded_bytes = rest.size();
  }
  return stats;
}

}  // namespace streamfreq
