#include "core/sketch_io.h"

#include <cstdio>
#include <fstream>

#include "util/failpoint.h"
#include "util/frame.h"

namespace streamfreq {

namespace {

// Writes `blob` (or its first `len` bytes) to `path`, checking every stage:
// open, write, and the explicit flush — a buffered ofstream happily reports
// success until close on a full disk.
Status WriteBlob(const std::string& path, const std::string& blob,
                 size_t len) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out.write(blob.data(), static_cast<std::streamsize>(len));
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace

Status WriteBlobFileAtomic(const std::string& path, uint64_t magic,
                           const std::string& payload) {
  std::string blob;
  frame::Append(magic, payload, &blob);

  if (const FailDecision fp = SFQ_FAILPOINT("sketch_io.write"); fp) {
    MaybeDieAtFailpoint(fp);  // power cut before any byte lands
    if (fp.action == FailAction::kTorn) {
      // Simulate a crash mid-write of a non-atomic writer: a prefix of the
      // blob lands at the *destination* path, bypassing the temp+rename
      // protocol, so readers must catch it via truncation/CRC checks.
      size_t keep = fp.param == 0 ? blob.size() / 2 : fp.param;
      keep = keep < blob.size() ? keep : blob.size();
      (void)WriteBlob(path, blob, keep);
    }
    return Status::IoError("injected failure: sketch_io.write: " + path);
  }

  // Crash consistency: land the bytes in a sibling temp file, then publish
  // with rename — atomic within a directory on POSIX, so a reader sees
  // either the old complete file or the new complete file, never a prefix.
  const std::string tmp_path = path + ".tmp";
  const Status write_status = WriteBlob(tmp_path, blob, blob.size());
  if (!write_status.ok()) {
    std::remove(tmp_path.c_str());
    return write_status;
  }
  if (const FailDecision fp = SFQ_FAILPOINT("sketch_io.rename"); fp) {
    MaybeDieAtFailpoint(fp);  // power cut with the temp written, not renamed
    if (fp.action == FailAction::kError) {
      std::remove(tmp_path.c_str());
      return Status::IoError("injected failure: sketch_io.rename: " + path);
    }
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IoError("rename failed: " + tmp_path + " -> " + path);
  }
  return Status::OK();
}

Result<std::string> ReadBlobFileVerified(const std::string& path,
                                         uint64_t magic) {
  const FailDecision fp = SFQ_FAILPOINT("sketch_io.read");
  if (fp.action == FailAction::kError) {
    return Status::IoError("injected failure: sketch_io.read: " + path);
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  char header_bytes[frame::kHeaderSize];
  in.read(header_bytes, sizeof(header_bytes));
  frame::Header header;
  Status status = frame::ParseHeader(
      std::string_view(header_bytes, static_cast<size_t>(in.gcount())), magic,
      kMaxBlobPayloadBytes, &header);
  if (!status.ok()) return Status::Corruption(status.message() + ": " + path);

  // The payload buffer is sized by the file, never by its length field: a
  // flipped high bit in the header cannot claim a giant allocation. A file
  // longer or shorter than the header declares fails VerifyPayload.
  in.seekg(0, std::ios::end);
  const std::streamoff rest = in.tellg() - std::streamoff{frame::kHeaderSize};
  in.seekg(std::streamoff{frame::kHeaderSize});
  std::string payload(rest > 0 ? static_cast<size_t>(rest) : 0, '\0');
  in.read(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!in) return Status::IoError("read failed: " + path);

  if (fp.action == FailAction::kBitFlip && !payload.empty()) {
    // Bit rot between write and read, in the payload; the CRC must catch it.
    const uint64_t bit = fp.param % (payload.size() * 8);
    payload[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(payload[bit / 8]) ^ (1u << (bit % 8)));
  }

  status = frame::VerifyPayload(header, payload);
  if (!status.ok()) return Status::Corruption(status.message() + ": " + path);
  return payload;
}

Status WriteSketchFile(const std::string& path, const CountSketch& sketch) {
  std::string payload;
  sketch.SerializeTo(&payload);
  return WriteBlobFileAtomic(path, kSketchFileMagic, payload);
}

Result<CountSketch> ReadSketchFile(const std::string& path) {
  STREAMFREQ_ASSIGN_OR_RETURN(std::string payload,
                              ReadBlobFileVerified(path, kSketchFileMagic));
  return CountSketch::Deserialize(payload);
}

}  // namespace streamfreq
