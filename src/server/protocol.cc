#include "server/protocol.h"

#include "util/bytes.h"
#include "util/frame.h"
#include "util/macros.h"

namespace streamfreq {

namespace {

// THE opcode registry: the only place where opcode values, names, and
// dispatch attributes live. sfq-lint's server-opcode rule checks that every
// Opcode enumerator appears here and that no other file conjures an Opcode
// from a raw number.
constexpr OpcodeInfo kOpcodeTable[kOpcodeCount] = {
    {Opcode::kPing, "ping", false},
    {Opcode::kCreateTenant, "create", true},
    {Opcode::kDropTenant, "drop", true},
    {Opcode::kIngest, "ingest", true},
    {Opcode::kSeal, "seal", true},
    {Opcode::kTopK, "topk", true},
    {Opcode::kEstimate, "estimate", true},
    {Opcode::kMarkEpoch, "mark", true},
    {Opcode::kMaxChange, "maxchange", true},
    {Opcode::kExport, "export", true},
    {Opcode::kStatsz, "statsz", false},
    {Opcode::kShutdown, "shutdown", false},
    {Opcode::kRecoveryInfo, "recoveryinfo", true},
};

// Longest message / blob a response decoder will accept; both are bounded
// by the frame payload bound anyway, this just keeps hostile lengths from
// round-tripping through size arithmetic.
constexpr size_t kMaxMessageBytes = 1 << 16;
constexpr size_t kMaxTenantBytes = 64;

}  // namespace

std::span<const OpcodeInfo> OpcodeTable() {
  return std::span<const OpcodeInfo>(kOpcodeTable, kOpcodeCount);
}

const char* OpcodeName(Opcode op) {
  for (const OpcodeInfo& info : OpcodeTable()) {
    if (info.op == op) return info.name;
  }
  return "unknown";
}

Result<Opcode> LookupOpcode(uint64_t raw) {
  for (const OpcodeInfo& info : OpcodeTable()) {
    if (static_cast<uint64_t>(info.op) == raw) return info.op;
  }
  return Status::InvalidArgument("protocol: unknown opcode " +
                                 std::to_string(raw));
}

Result<Opcode> OpcodeFromName(std::string_view name) {
  for (const OpcodeInfo& info : OpcodeTable()) {
    if (info.name == name) return info.op;
  }
  return Status::InvalidArgument("protocol: unknown op name: " +
                                 std::string(name));
}

bool OpcodeNeedsTenant(Opcode op) {
  for (const OpcodeInfo& info : OpcodeTable()) {
    if (info.op == op) return info.needs_tenant;
  }
  return true;  // unregistered values never reach dispatch; fail closed
}

std::string EncodeFrame(std::string_view payload) {
  std::string out;
  frame::Append(kFrameMagic, payload, &out);
  return out;
}

Status DecodeFrame(std::string_view bytes, std::string* payload) {
  std::string_view body;
  STREAMFREQ_RETURN_NOT_OK(
      frame::Split(&bytes, kFrameMagic, kMaxPayloadBytes, &body));
  if (!bytes.empty()) return Status::Corruption("trailing bytes after frame");
  payload->assign(body.data(), body.size());
  return Status::OK();
}

uint64_t PolicyToWire(OverflowPolicy policy) {
  return static_cast<uint64_t>(policy);
}

Result<OverflowPolicy> PolicyFromWire(uint64_t raw) {
  switch (raw) {
    case static_cast<uint64_t>(OverflowPolicy::kBlock):
      return OverflowPolicy::kBlock;
    case static_cast<uint64_t>(OverflowPolicy::kShed):
      return OverflowPolicy::kShed;
    case static_cast<uint64_t>(OverflowPolicy::kSample):
      return OverflowPolicy::kSample;
    default:
      return Status::InvalidArgument("protocol: unknown overflow policy " +
                                     std::to_string(raw));
  }
}

const char* PolicyName(OverflowPolicy policy) {
  switch (policy) {
    case OverflowPolicy::kBlock:
      return "block";
    case OverflowPolicy::kShed:
      return "shed";
    case OverflowPolicy::kSample:
      return "sample";
  }
  return "unknown";
}

Result<OverflowPolicy> PolicyFromName(std::string_view name) {
  if (name == "block") return OverflowPolicy::kBlock;
  if (name == "shed") return OverflowPolicy::kShed;
  if (name == "sample") return OverflowPolicy::kSample;
  return Status::InvalidArgument("protocol: unknown overflow policy: " +
                                 std::string(name));
}

bool ValidTenantName(std::string_view name) {
  if (name.empty() || name.size() > kMaxTenantBytes) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

void TenantSpec::EncodeTo(ByteWriter& w) const {
  w.PutU64(depth);
  w.PutU64(width);
  w.PutU64(seed);
  w.PutU64(threads);
  w.PutU64(batch_items);
  w.PutU64(queue_batches);
  w.PutU64(publish_every_batches);
  w.PutU64(push_timeout_ms);
  w.PutU64(PolicyToWire(policy));
  w.PutU64(sample_keep_one_in);
  w.PutU64(tracked);
}

Status TenantSpec::DecodeFrom(ByteReader& r) {
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&depth));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&width));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&seed));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&threads));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&batch_items));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&queue_batches));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&publish_every_batches));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&push_timeout_ms));
  uint64_t raw_policy;
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&raw_policy));
  STREAMFREQ_ASSIGN_OR_RETURN(policy, PolicyFromWire(raw_policy));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&sample_keep_one_in));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&tracked));
  return Status::OK();
}

void Request::EncodeTo(std::string* out) const {
  ByteWriter w(out);
  w.PutU64(static_cast<uint64_t>(op));
  w.PutString(tenant);
  spec.EncodeTo(w);
  w.PutU64(k);
  w.PutU64(item);
  w.PutU64(items.size());
  for (const ItemId id : items) w.PutU64(id);
}

Result<Request> Request::Decode(std::string_view payload) {
  ByteReader r(payload);
  Request req;
  uint64_t raw_op;
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&raw_op));
  // An unknown opcode in a checksummed frame is a protocol-version mismatch
  // rather than wire damage; surface it as such.
  STREAMFREQ_ASSIGN_OR_RETURN(req.op, LookupOpcode(raw_op));
  STREAMFREQ_RETURN_NOT_OK(r.GetString(&req.tenant, kMaxTenantBytes));
  // Like an unknown opcode: the frame checksum already vouched for the
  // bytes, so a bad name is a misbehaving client, not wire damage.
  if (!req.tenant.empty() && !ValidTenantName(req.tenant)) {
    return Status::InvalidArgument("request: malformed tenant name");
  }
  STREAMFREQ_RETURN_NOT_OK(req.spec.DecodeFrom(r));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&req.k));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&req.item));
  uint64_t count;
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&count));
  // Items are the final field: the declared count must consume the rest of
  // the payload exactly. Checked before the reserve so a corrupt count
  // cannot trigger a giant allocation.
  if (count * 8 != r.remaining() || count > kMaxPayloadBytes / 8) {
    return Status::Corruption("request: item count does not match payload");
  }
  req.items.resize(static_cast<size_t>(count));
  for (ItemId& id : req.items) {
    STREAMFREQ_RETURN_NOT_OK(r.GetU64(&id));
  }
  return req;
}

Status Response::ToStatus() const {
  if (code == 0) return Status::OK();
  return Status(static_cast<StatusCode>(static_cast<int8_t>(code)),
                message.empty() ? "server error" : message);
}

Response Response::FromStatus(const Status& status) {
  Response resp;
  resp.code = static_cast<uint64_t>(status.code());
  resp.message = status.message();
  return resp;
}

void Response::EncodeTo(std::string* out) const {
  ByteWriter w(out);
  w.PutU64(code);
  w.PutString(message);
  w.PutU64(epoch);
  w.PutI64(value);
  w.PutU64(entries.size());
  for (const ItemCount& entry : entries) {
    w.PutU64(entry.item);
    w.PutI64(entry.count);
  }
  w.PutString(blob);
}

Result<Response> Response::Decode(std::string_view payload) {
  ByteReader r(payload);
  Response resp;
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&resp.code));
  if (resp.code > static_cast<uint64_t>(StatusCode::kInternal)) {
    return Status::Corruption("response: unknown status code");
  }
  STREAMFREQ_RETURN_NOT_OK(r.GetString(&resp.message, kMaxMessageBytes));
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&resp.epoch));
  STREAMFREQ_RETURN_NOT_OK(r.GetI64(&resp.value));
  uint64_t count;
  STREAMFREQ_RETURN_NOT_OK(r.GetU64(&count));
  if (count > r.remaining() / 16) {
    return Status::Corruption("response: entry count exceeds payload");
  }
  resp.entries.resize(static_cast<size_t>(count));
  for (ItemCount& entry : resp.entries) {
    STREAMFREQ_RETURN_NOT_OK(r.GetU64(&entry.item));
    STREAMFREQ_RETURN_NOT_OK(r.GetI64(&entry.count));
  }
  STREAMFREQ_RETURN_NOT_OK(r.GetString(&resp.blob));
  if (r.remaining() != 0) {
    return Status::Corruption("response: trailing bytes after last field");
  }
  return resp;
}

}  // namespace streamfreq
