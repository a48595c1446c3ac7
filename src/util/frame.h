// The one frame codec. RPC and delta frames, WAL records, sketch
// checkpoints and tenant snapshots are each one frame (little-endian):
//
//   u64 magic    per-format tag, e.g. "SFQRPC01" or "SFQWAL01"
//   u64 length   payload bytes that follow (bounded by the caller)
//   u32 crc      masked CRC-32C of the payload (crc32c::Mask)
//   payload
//
// This is the only code that knows the layout; sfq-lint's raw-frame rule
// keeps crc32c out of src/ outside src/util/. Policy stays with each
// format: its magic, its length bound, and what a bad frame means. Every
// failure here is Corruption.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace streamfreq {
namespace frame {

/// u64 magic + u64 length + u32 crc.
inline constexpr size_t kHeaderSize = 20;

/// Appends one frame of `payload` under `magic` to `*out`.
void Append(uint64_t magic, std::string_view payload, std::string* out);

/// A parsed header: the payload length, within the caller's bound, and the
/// masked CRC the payload must match.
struct Header {
  uint64_t payload_len = 0;
  uint32_t masked_crc = 0;
};

/// Parses the header at the front of `bytes`: the magic must equal `magic`
/// and the declared length must not exceed `max_payload`, so a streaming
/// reader may size its buffer by `header->payload_len`.
Status ParseHeader(std::string_view bytes, uint64_t magic, uint64_t max_payload,
                   Header* header);

/// Checks that `payload` is exactly the payload `header` declares: its
/// length, then its CRC.
Status VerifyPayload(const Header& header, std::string_view payload);

/// Splits one complete, CRC-verified frame off the front of `*data`: on OK,
/// `*payload` views its payload and `*data` is advanced past it. On error
/// neither is changed.
Status Split(std::string_view* data, uint64_t magic, uint64_t max_payload,
             std::string_view* payload);

}  // namespace frame
}  // namespace streamfreq
