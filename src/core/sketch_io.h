// Checksummed on-disk persistence for Count-Sketches and other blobs.
//
// A file is exactly one util/frame.h frame under the caller's magic (e.g.
// kSketchFileMagic for sketch checkpoints), bounded by
// kMaxBlobPayloadBytes. The CRC catches torn writes and bit rot; the
// caller's decoder inside the payload additionally validates structure.
// Use these for checkpointing long-lived sketches or shipping them between
// nodes (the distributed-aggregation pattern the paper's additivity
// enables). The server's durability layer (src/server/wal.h,
// snapshotter.h) reuses the generic blob entry points so every durable
// artifact shares one write discipline.
//
// Crash consistency: writes land the bytes in `path + ".tmp"` and publish
// them with rename — atomic within a directory on POSIX — so a crash
// mid-save leaves the previous checkpoint intact, never a prefix. Reads
// treat every adversarial input as data, not UB: short reads, wrong magic,
// implausible lengths, trailing bytes, and checksum mismatches all come
// back as Corruption (the shared corruption matrix in
// tests/frame_corruption_matrix.h, run by tests/sketch_io_test.cc under
// ASan/UBSan by check.sh).
#pragma once

#include <cstdint>
#include <string>

#include "core/count_sketch.h"
#include "util/result.h"

namespace streamfreq {

/// Magic tag of sketch checkpoint files (bytes on disk: "S10FSQFS").
constexpr uint64_t kSketchFileMagic = 0x5346515346303153ULL;

/// Bound on a blob file's payload. A checkpoint holds a whole sketch, so it
/// is far above the 64 MiB of an RPC frame; it only rejects lengths no real
/// file can have.
inline constexpr uint64_t kMaxBlobPayloadBytes = uint64_t{1} << 40;

/// Writes `payload` framed under `magic` to `path` atomically: bytes land
/// in `path + ".tmp"` and are published by rename, so concurrent readers
/// and crash recovery see either the old file or the new one in full.
/// Carries the `sketch_io.write` / `sketch_io.rename` failpoints (including
/// process-death mid-publish in crash-kills-process mode — see
/// util/failpoint.h).
Status WriteBlobFileAtomic(const std::string& path, uint64_t magic,
                           const std::string& payload);

/// Reads and verifies a file written by WriteBlobFileAtomic, returning the
/// payload bytes. Corruption (bad magic, bad CRC, truncation, trailing
/// bytes) is distinguished from filesystem errors. Carries the
/// `sketch_io.read` failpoint.
Result<std::string> ReadBlobFileVerified(const std::string& path,
                                         uint64_t magic);

/// Writes `sketch` to `path` atomically (kSketchFileMagic framing).
Status WriteSketchFile(const std::string& path, const CountSketch& sketch);

/// Reads a sketch written by WriteSketchFile. Corruption (bad magic, bad
/// CRC, truncation) is distinguished from filesystem errors.
Result<CountSketch> ReadSketchFile(const std::string& path);

}  // namespace streamfreq
