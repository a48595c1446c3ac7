// Broken on purpose: a journal that builds its own checksummed header.
// RPC frames, WAL records and blob files share one frame layout, defined
// once in util/frame.h; a hand-rolled copy can drift from it (a different
// mask, a different field order) and still pass its own round-trip tests.
//
// sfq-lint-path: src/server/bad_journal.cc
// sfq-lint-expect: raw-frame

#include <string>

#include "util/bytes.h"
#include "util/crc32.h"

namespace streamfreq {

std::string FrameRecord(uint64_t magic, const std::string& payload) {
  std::string out;
  ByteWriter w(&out);
  w.PutU64(magic);
  w.PutU64(payload.size());
  const uint32_t crc =
      crc32c::Mask(crc32c::Value(payload.data(), payload.size()));
  w.PutBytes(&crc, sizeof(crc));
  out += payload;
  return out;
}

}  // namespace streamfreq
