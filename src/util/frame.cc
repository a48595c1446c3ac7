#include "util/frame.h"

#include <cstring>

#include "util/crc32.h"

namespace streamfreq {
namespace frame {

void Append(uint64_t magic, std::string_view payload, std::string* out) {
  const uint64_t len = payload.size();
  const uint32_t crc = crc32c::Mask(crc32c::Value(payload.data(), len));
  char header[kHeaderSize];
  std::memcpy(header, &magic, 8);
  std::memcpy(header + 8, &len, 8);
  std::memcpy(header + 16, &crc, 4);
  out->reserve(out->size() + kHeaderSize + len);
  out->append(header, kHeaderSize);
  out->append(payload.data(), len);
}

Status ParseHeader(std::string_view bytes, uint64_t magic, uint64_t max_payload,
                   Header* header) {
  if (bytes.size() < kHeaderSize) {
    return Status::Corruption("frame header truncated");
  }
  uint64_t stored_magic, len;
  std::memcpy(&stored_magic, bytes.data(), 8);
  std::memcpy(&len, bytes.data() + 8, 8);
  if (stored_magic != magic) return Status::Corruption("bad frame magic");
  if (len > max_payload) {
    return Status::Corruption("frame payload length exceeds bound");
  }
  header->payload_len = len;
  std::memcpy(&header->masked_crc, bytes.data() + 16, 4);
  return Status::OK();
}

Status VerifyPayload(const Header& header, std::string_view payload) {
  if (payload.size() < header.payload_len) {
    return Status::Corruption("frame payload truncated");
  }
  if (payload.size() > header.payload_len) {
    return Status::Corruption("trailing bytes after frame payload");
  }
  if (crc32c::Unmask(header.masked_crc) !=
      crc32c::Value(payload.data(), payload.size())) {
    return Status::Corruption("frame payload checksum mismatch");
  }
  return Status::OK();
}

Status Split(std::string_view* data, uint64_t magic, uint64_t max_payload,
             std::string_view* payload) {
  Header header;
  STREAMFREQ_RETURN_NOT_OK(ParseHeader(*data, magic, max_payload, &header));
  // substr clamps a length the bytes do not back; VerifyPayload then
  // reports the truncation.
  const std::string_view body =
      data->substr(kHeaderSize, static_cast<size_t>(header.payload_len));
  STREAMFREQ_RETURN_NOT_OK(VerifyPayload(header, body));
  *payload = body;
  data->remove_prefix(kHeaderSize + body.size());
  return Status::OK();
}

}  // namespace frame
}  // namespace streamfreq
