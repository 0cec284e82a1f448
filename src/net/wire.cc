#include "net/wire.h"

#include <cstring>

namespace hdsky {
namespace net {

using common::Result;
using common::Status;
using common::StatusCode;

namespace {

constexpr char kMagic0 = 'H';
constexpr char kMagic1 = 'D';

/// Caps speculative reserve() calls on peer-supplied counts: never reserve
/// more elements than the remaining bytes could possibly encode.
template <typename T>
size_t SafeReserve(uint32_t claimed, size_t remaining_bytes) {
  const size_t fits = remaining_bytes / sizeof(T);
  return claimed < fits ? claimed : fits;
}

}  // namespace

const char* FrameTypeToString(FrameType t) {
  switch (t) {
    case FrameType::kHello:
      return "Hello";
    case FrameType::kDescriptor:
      return "Descriptor";
    case FrameType::kQuery:
      return "Query";
    case FrameType::kResult:
      return "Result";
    case FrameType::kStatus:
      return "Status";
    case FrameType::kStatsRequest:
      return "StatsRequest";
    case FrameType::kStats:
      return "Stats";
  }
  return "Unknown";
}

bool IsTransient(WireStatus code) {
  return code == WireStatus::kRateLimited;
}

WireStatus WireStatusFromStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return WireStatus::kOk;
    case StatusCode::kInvalidArgument:
      return WireStatus::kInvalidArgument;
    case StatusCode::kUnsupported:
      return WireStatus::kUnsupported;
    case StatusCode::kNotFound:
      return WireStatus::kNotFound;
    case StatusCode::kResourceExhausted:
      return WireStatus::kBudgetExhausted;
    case StatusCode::kOutOfRange:
      return WireStatus::kOutOfRange;
    case StatusCode::kIOError:
      return WireStatus::kIOError;
    case StatusCode::kInternal:
      return WireStatus::kInternal;
    case StatusCode::kAlreadyExists:
      return WireStatus::kAlreadyExists;
  }
  return WireStatus::kInternal;
}

Status StatusFromWire(uint16_t code, const std::string& message) {
  switch (static_cast<WireStatus>(code)) {
    case WireStatus::kOk:
      return Status::OK();
    case WireStatus::kInvalidArgument:
      return Status::InvalidArgument(message);
    case WireStatus::kUnsupported:
      return Status::Unsupported(message);
    case WireStatus::kNotFound:
      return Status::NotFound(message);
    case WireStatus::kBudgetExhausted:
    case WireStatus::kRateLimited:
      return Status::ResourceExhausted(message);
    case WireStatus::kOutOfRange:
      return Status::OutOfRange(message);
    case WireStatus::kIOError:
      return Status::IOError(message);
    case WireStatus::kInternal:
      return Status::Internal(message);
    case WireStatus::kAlreadyExists:
      return Status::AlreadyExists(message);
  }
  return Status::Internal("unknown wire status " + std::to_string(code) +
                          ": " + message);
}

// ---------------------------------------------------------------------------
// Encoder / Decoder.

void Encoder::PutU16(uint16_t v) {
  PutU8(static_cast<uint8_t>(v));
  PutU8(static_cast<uint8_t>(v >> 8));
}

void Encoder::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
}

void Encoder::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
}

void Encoder::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  out_->append(s.data(), s.size());
}

bool Decoder::Take(size_t n, const char** out) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  *out = data_.data() + pos_;
  pos_ += n;
  return true;
}

bool Decoder::GetU8(uint8_t* v) {
  const char* p;
  if (!Take(1, &p)) return false;
  *v = static_cast<uint8_t>(*p);
  return true;
}

bool Decoder::GetU16(uint16_t* v) {
  const char* p;
  if (!Take(2, &p)) return false;
  *v = static_cast<uint16_t>(static_cast<uint8_t>(p[0])) |
       static_cast<uint16_t>(static_cast<uint8_t>(p[1])) << 8;
  return true;
}

bool Decoder::GetU32(uint32_t* v) {
  const char* p;
  if (!Take(4, &p)) return false;
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  *v = out;
  return true;
}

bool Decoder::GetU64(uint64_t* v) {
  const char* p;
  if (!Take(8, &p)) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  *v = out;
  return true;
}

bool Decoder::GetI64(int64_t* v) {
  uint64_t u;
  if (!GetU64(&u)) return false;
  *v = static_cast<int64_t>(u);
  return true;
}

bool Decoder::GetString(std::string* s) {
  uint32_t len;
  if (!GetU32(&len)) return false;
  const char* p;
  if (!Take(len, &p)) return false;
  s->assign(p, len);
  return true;
}

// ---------------------------------------------------------------------------
// Frame header.

std::string EncodeFrameHeader(FrameType type, uint32_t payload_len) {
  std::string out;
  out.reserve(kFrameHeaderBytes);
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  Encoder enc(&out);
  enc.PutU8(kProtocolVersion);
  enc.PutU8(static_cast<uint8_t>(type));
  enc.PutU32(payload_len);
  return out;
}

Result<FrameHeader> DecodeFrameHeader(std::string_view bytes) {
  if (bytes.size() != kFrameHeaderBytes) {
    return Status::IOError("frame header must be " +
                           std::to_string(kFrameHeaderBytes) + " bytes");
  }
  if (bytes[0] != kMagic0 || bytes[1] != kMagic1) {
    return Status::IOError("bad frame magic (not an hdsky peer)");
  }
  Decoder dec(bytes.substr(2));
  FrameHeader header;
  uint8_t type = 0;
  dec.GetU8(&header.version);
  dec.GetU8(&type);
  dec.GetU32(&header.payload_len);
  if (!dec.ok()) return Status::IOError("truncated frame header");
  if (header.version != kProtocolVersion) {
    return Status::IOError("unsupported protocol version " +
                           std::to_string(header.version));
  }
  if (type < static_cast<uint8_t>(FrameType::kHello) ||
      type > static_cast<uint8_t>(FrameType::kStats)) {
    return Status::IOError("unknown frame type " + std::to_string(type));
  }
  header.type = static_cast<FrameType>(type);
  if (header.payload_len > kMaxPayloadBytes) {
    return Status::IOError("frame payload length " +
                           std::to_string(header.payload_len) +
                           " exceeds the protocol cap");
  }
  return header;
}

// ---------------------------------------------------------------------------
// Hello.

void EncodeHello(uint64_t session_id, std::string* out) {
  Encoder enc(out);
  enc.PutU64(session_id);
}

Status DecodeHello(std::string_view payload, uint64_t* session_id) {
  Decoder dec(payload);
  dec.GetU64(session_id);
  if (!dec.exhausted()) return Status::IOError("malformed Hello payload");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Descriptor.

void EncodeDescriptor(const data::Schema& schema, int k,
                      int64_t remaining_budget, std::string* out) {
  Encoder enc(out);
  enc.PutU32(static_cast<uint32_t>(k));
  enc.PutI64(remaining_budget);
  enc.PutU32(static_cast<uint32_t>(schema.num_attributes()));
  for (const data::AttributeSpec& spec : schema.attributes()) {
    enc.PutString(spec.name);
    enc.PutU8(static_cast<uint8_t>(spec.kind));
    enc.PutU8(static_cast<uint8_t>(spec.iface));
    enc.PutI64(spec.domain_min);
    enc.PutI64(spec.domain_max);
  }
}

Result<Descriptor> DecodeDescriptor(std::string_view payload) {
  Decoder dec(payload);
  uint32_t k = 0;
  int64_t remaining = -1;
  uint32_t num_attrs = 0;
  dec.GetU32(&k);
  dec.GetI64(&remaining);
  dec.GetU32(&num_attrs);
  if (!dec.ok()) return Status::IOError("truncated Descriptor payload");
  // Every attribute costs at least 18 bytes (empty name), so a lying
  // count cannot force a large reserve.
  std::vector<data::AttributeSpec> attrs;
  attrs.reserve(SafeReserve<int64_t>(num_attrs, dec.remaining()));
  for (uint32_t a = 0; a < num_attrs; ++a) {
    data::AttributeSpec spec;
    uint8_t kind = 0;
    uint8_t iface = 0;
    dec.GetString(&spec.name);
    dec.GetU8(&kind);
    dec.GetU8(&iface);
    dec.GetI64(&spec.domain_min);
    dec.GetI64(&spec.domain_max);
    if (!dec.ok()) return Status::IOError("truncated Descriptor attribute");
    if (kind > static_cast<uint8_t>(data::AttributeKind::kFiltering)) {
      return Status::IOError("Descriptor: unknown attribute kind " +
                             std::to_string(kind));
    }
    if (iface > static_cast<uint8_t>(data::InterfaceType::kFilterEquality)) {
      return Status::IOError("Descriptor: unknown interface type " +
                             std::to_string(iface));
    }
    spec.kind = static_cast<data::AttributeKind>(kind);
    spec.iface = static_cast<data::InterfaceType>(iface);
    attrs.push_back(std::move(spec));
  }
  if (!dec.exhausted()) {
    return Status::IOError("Descriptor payload has trailing bytes");
  }
  if (k < 1 || k > 1000000) {
    return Status::IOError("Descriptor: implausible k " +
                           std::to_string(k));
  }
  Descriptor descriptor;
  // Schema::Create re-validates names, domains, and taxonomy, so a hostile
  // descriptor cannot smuggle in an inconsistent schema.
  HDSKY_ASSIGN_OR_RETURN(descriptor.schema,
                         data::Schema::Create(std::move(attrs)));
  descriptor.k = static_cast<int>(k);
  descriptor.remaining_budget = remaining;
  return descriptor;
}

// ---------------------------------------------------------------------------
// Query.

void EncodeQueryBody(const interface::Query& q, Encoder* enc) {
  enc->PutU32(static_cast<uint32_t>(q.num_attributes()));
  for (int a = 0; a < q.num_attributes(); ++a) {
    const interface::Interval& iv = q.interval(a);
    enc->PutI64(iv.lower);
    enc->PutI64(iv.upper);
  }
}

bool DecodeQueryBody(Decoder* dec, interface::Query* q) {
  uint32_t num_attrs = 0;
  if (!dec->GetU32(&num_attrs)) return false;
  if (static_cast<size_t>(num_attrs) * 16 > dec->remaining()) return false;
  interface::Query decoded(static_cast<int>(num_attrs));
  for (uint32_t a = 0; a < num_attrs; ++a) {
    int64_t lower, upper;
    dec->GetI64(&lower);
    if (!dec->GetI64(&upper)) return false;
    // AddAtLeast/AddAtMost intersect with an unconstrained interval, so
    // the decoded bounds reproduce the encoded ones exactly (including
    // empty intervals with lower > upper).
    if (lower != interface::Interval::kMin) {
      decoded.AddAtLeast(static_cast<int>(a), lower);
    }
    if (upper != interface::Interval::kMax) {
      decoded.AddAtMost(static_cast<int>(a), upper);
    }
  }
  *q = std::move(decoded);
  return true;
}

void EncodeQuery(uint64_t seq, const interface::Query& q, std::string* out) {
  Encoder enc(out);
  enc.PutU64(seq);
  EncodeQueryBody(q, &enc);
}

Status DecodeQuery(std::string_view payload, uint64_t* seq,
                   interface::Query* q) {
  Decoder dec(payload);
  if (!dec.GetU64(seq)) return Status::IOError("truncated Query payload");
  interface::Query decoded;
  if (!DecodeQueryBody(&dec, &decoded) || !dec.exhausted()) {
    return Status::IOError("truncated or malformed Query payload");
  }
  *q = std::move(decoded);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Result.

void EncodeResult(uint64_t seq, const interface::QueryResult& result,
                  std::string* out) {
  Encoder enc(out);
  enc.PutU64(seq);
  enc.PutU8(result.overflow ? 1 : 0);
  enc.PutU32(static_cast<uint32_t>(result.ids.size()));
  const uint32_t width =
      result.tuples.empty() ? 0
                            : static_cast<uint32_t>(result.tuples[0].size());
  enc.PutU32(width);
  for (size_t i = 0; i < result.ids.size(); ++i) {
    enc.PutI64(result.ids[i]);
    for (data::Value v : result.tuples[i]) enc.PutI64(v);
  }
}

Status DecodeResultBody(Decoder* dec, int expected_width, uint64_t* seq,
                        interface::QueryResult* result) {
  uint8_t overflow = 0;
  uint32_t count = 0;
  uint32_t width = 0;
  dec->GetU64(seq);
  dec->GetU8(&overflow);
  dec->GetU32(&count);
  dec->GetU32(&width);
  if (!dec->ok()) return Status::IOError("truncated Result payload");
  if (overflow > 1) {
    return Status::IOError("Result: overflow flag must be 0 or 1");
  }
  if (count > 0 && width != static_cast<uint32_t>(expected_width)) {
    return Status::IOError("Result tuple width " + std::to_string(width) +
                           " does not match the schema arity " +
                           std::to_string(expected_width));
  }
  const size_t row_bytes = (1 + static_cast<size_t>(width)) * 8;
  if (static_cast<size_t>(count) * row_bytes > dec->remaining()) {
    return Status::IOError("Result payload size disagrees with its count");
  }
  interface::QueryResult decoded;
  decoded.overflow = overflow != 0;
  decoded.ids.reserve(count);
  decoded.tuples.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    int64_t id;
    dec->GetI64(&id);
    if (!dec->ok()) return Status::IOError("truncated Result tuple");
    if (id < 0) return Status::IOError("Result: negative tuple id");
    data::Tuple t(width);
    for (uint32_t a = 0; a < width; ++a) {
      dec->GetI64(&t[a]);
    }
    if (!dec->ok()) return Status::IOError("truncated Result tuple values");
    decoded.ids.push_back(id);
    decoded.tuples.push_back(std::move(t));
  }
  *result = std::move(decoded);
  return Status::OK();
}

Status DecodeResult(std::string_view payload, int expected_width,
                    uint64_t* seq, interface::QueryResult* result) {
  Decoder dec(payload);
  HDSKY_RETURN_IF_ERROR(DecodeResultBody(&dec, expected_width, seq, result));
  if (!dec.exhausted()) {
    return Status::IOError("Result payload has trailing bytes");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Status frame.

void EncodeStatus(uint64_t seq, WireStatus code, std::string_view message,
                  std::string* out) {
  Encoder enc(out);
  enc.PutU64(seq);
  enc.PutU16(static_cast<uint16_t>(code));
  enc.PutString(message);
}

Status DecodeStatusFrame(std::string_view payload, uint64_t* seq,
                         uint16_t* code, std::string* message) {
  Decoder dec(payload);
  dec.GetU64(seq);
  dec.GetU16(code);
  dec.GetString(message);
  if (!dec.exhausted()) return Status::IOError("malformed Status payload");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Stats frames.

void EncodeStatsRequest(uint64_t seq, std::string* out) {
  Encoder enc(out);
  enc.PutU64(seq);
}

Status DecodeStatsRequest(std::string_view payload, uint64_t* seq) {
  Decoder dec(payload);
  dec.GetU64(seq);
  if (!dec.exhausted()) {
    return Status::IOError("malformed StatsRequest payload");
  }
  return Status::OK();
}

namespace {

/// The counters travel as a counted list of i64s so a server that grows
/// new fields stays readable by older clients (extra fields ignored) and
/// a shorter server payload decodes as zeros on the client.
constexpr uint32_t kServiceStatsFields = 9;

}  // namespace

void EncodeStats(uint64_t seq, const ServiceStats& stats, std::string* out) {
  Encoder enc(out);
  enc.PutU64(seq);
  enc.PutU32(kServiceStatsFields);
  enc.PutI64(stats.queries_served);
  enc.PutI64(stats.backend_executions);
  enc.PutI64(stats.queries_replayed);
  enc.PutI64(stats.busy_rejections);
  enc.PutI64(stats.budget_rejections);
  enc.PutI64(stats.connections_accepted);
  enc.PutI64(stats.connections_rejected);
  enc.PutI64(stats.connections_shed);
  enc.PutI64(stats.protocol_errors);
}

Status DecodeStats(std::string_view payload, uint64_t* seq,
                   ServiceStats* stats) {
  Decoder dec(payload);
  uint32_t count = 0;
  dec.GetU64(seq);
  dec.GetU32(&count);
  if (!dec.ok() || count > 1024) {
    return Status::IOError("malformed Stats payload");
  }
  *stats = ServiceStats();
  int64_t* fields[kServiceStatsFields] = {
      &stats->queries_served,       &stats->backend_executions,
      &stats->queries_replayed,     &stats->busy_rejections,
      &stats->budget_rejections,    &stats->connections_accepted,
      &stats->connections_rejected, &stats->connections_shed,
      &stats->protocol_errors};
  for (uint32_t i = 0; i < count; ++i) {
    int64_t v = 0;
    dec.GetI64(&v);
    if (i < kServiceStatsFields) *fields[i] = v;
  }
  if (!dec.exhausted()) return Status::IOError("malformed Stats payload");
  return Status::OK();
}

}  // namespace net
}  // namespace hdsky
