// The hdsky wire protocol: versioned, length-prefixed binary frames
// carrying top-k queries and answers between a discovery client and a
// hidden-database server (tools/hdsky_serve).
//
// Frame layout (all integers little-endian, fixed width):
//
//   offset  size  field
//   0       2     magic "HD"
//   2       1     protocol version (kProtocolVersion)
//   3       1     frame type (FrameType)
//   4       4     payload length in bytes (<= kMaxPayloadBytes)
//   8       n     payload
//
// Frame types and payloads:
//   kHello       client->server  u64 session id
//   kDescriptor  server->client  u32 k, i64 remaining budget (-1 =
//                                unlimited), schema (see EncodeDescriptor)
//   kQuery       client->server  u64 seq, u32 arity, arity x {i64 lo, i64 hi}
//   kResult      server->client  u64 seq, u8 overflow, u32 count, u32 width,
//                                count x {i64 id, width x i64 values}
//   kStatus      server->client  u64 seq, u16 wire status, string message
//
// The sequence number makes retries idempotent: a client re-sends the same
// seq after a connection failure and the server replays its cached reply
// instead of re-executing the query, so backend query accounting is exact
// even under an adversarial network (see src/service/event_server.h).
//
// Wire status codes extend common::StatusCode with service-level signals:
// kBudgetExhausted is a *permanent* "your query budget is spent" (maps to
// ResourceExhausted), while kRateLimited is a *transient* "slow down"
// that clients retry with backoff before giving up.
//
// Decoders never trust the peer: every read is bounds-checked, lengths are
// capped, and any malformed byte sequence yields a descriptive IOError
// instead of partial state (the same hardening discipline as the
// hdsky-cache-v1 reader in interface/cache_io.cc).

#ifndef HDSKY_NET_WIRE_H_
#define HDSKY_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "data/schema.h"
#include "interface/hidden_database.h"
#include "interface/query.h"

namespace hdsky {
namespace net {

inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 8;
/// Upper bound on a frame payload; anything larger is a protocol error.
/// Generous for QueryResult frames (k tuples of m int64s) while keeping a
/// malicious length prefix from allocating unbounded memory.
inline constexpr uint32_t kMaxPayloadBytes = 1u << 26;  // 64 MiB

enum class FrameType : uint8_t {
  kHello = 1,
  kDescriptor = 2,
  kQuery = 3,
  kResult = 4,
  kStatus = 5,
  /// client->server: ask for the server's service counters (u64 seq).
  kStatsRequest = 6,
  /// server->client: u64 seq + ServiceStats counters. Added so load
  /// generators can read the server's counters without scraping its
  /// stderr; protocol version stays 1 because the exchange is strictly
  /// opt-in (old clients never send kStatsRequest).
  kStats = 7,
};

const char* FrameTypeToString(FrameType t);

/// Service-level status codes carried by kStatus frames.
enum class WireStatus : uint16_t {
  kOk = 0,
  kInvalidArgument = 1,
  kUnsupported = 2,
  kNotFound = 3,
  /// The client's query budget is spent: permanent for this session, maps
  /// to common::Status::ResourceExhausted (the anytime signal).
  kBudgetExhausted = 4,
  kOutOfRange = 5,
  kIOError = 6,
  kInternal = 7,
  kAlreadyExists = 8,
  /// Transient throttle (connection limit, burst control, injected fault):
  /// the client should back off and retry the same sequence number.
  kRateLimited = 100,
};

/// True for codes a client may retry with backoff.
bool IsTransient(WireStatus code);

/// Maps a local failure onto the wire (OK must not be passed).
WireStatus WireStatusFromStatus(const common::Status& status);

/// Maps a wire code + message back into the common::Status model.
/// kRateLimited and kBudgetExhausted both surface as ResourceExhausted —
/// the code the discovery algorithms already turn into anytime results.
common::Status StatusFromWire(uint16_t code, const std::string& message);

// ---------------------------------------------------------------------------
// Primitive append-only encoder / bounds-checked decoder.

/// Appends little-endian fixed-width primitives to a byte string.
class Encoder {
 public:
  explicit Encoder(std::string* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  /// u32 length prefix followed by the raw bytes.
  void PutString(std::string_view s);

 private:
  std::string* out_;
};

/// Reads primitives back; after any failed read every subsequent Get*
/// fails too, so decode functions can check ok() once at the end.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  bool GetU8(uint8_t* v);
  bool GetU16(uint16_t* v);
  bool GetU32(uint32_t* v);
  bool GetU64(uint64_t* v);
  bool GetI64(int64_t* v);
  /// Length-prefixed string; the length is validated against the bytes
  /// actually remaining, so a lying prefix cannot trigger a huge allocation.
  bool GetString(std::string* s);

  bool ok() const { return ok_; }
  /// Bytes not yet consumed.
  size_t remaining() const { return data_.size() - pos_; }
  /// True when the decoder is healthy and fully consumed — frame payloads
  /// must not carry trailing garbage.
  bool exhausted() const { return ok_ && pos_ == data_.size(); }

 private:
  bool Take(size_t n, const char** out);

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Frame header.

struct FrameHeader {
  uint8_t version = kProtocolVersion;
  FrameType type = FrameType::kStatus;
  uint32_t payload_len = 0;
};

/// Exactly kFrameHeaderBytes bytes.
std::string EncodeFrameHeader(FrameType type, uint32_t payload_len);

/// Validates magic, version, known type, and the payload-length cap.
common::Result<FrameHeader> DecodeFrameHeader(std::string_view bytes);

// ---------------------------------------------------------------------------
// Payload codecs. Encoders append to *out; decoders are total functions of
// the payload bytes and fail with IOError on any malformation.

void EncodeHello(uint64_t session_id, std::string* out);
common::Status DecodeHello(std::string_view payload, uint64_t* session_id);

/// The public face of the served database: search-form schema, page size,
/// and the client's remaining query budget (-1 = unlimited).
struct Descriptor {
  data::Schema schema;
  int k = 0;
  int64_t remaining_budget = -1;
};

void EncodeDescriptor(const data::Schema& schema, int k,
                      int64_t remaining_budget, std::string* out);
common::Result<Descriptor> DecodeDescriptor(std::string_view payload);

void EncodeQuery(uint64_t seq, const interface::Query& q, std::string* out);
common::Status DecodeQuery(std::string_view payload, uint64_t* seq,
                           interface::Query* q);

/// Body-only query codec (arity + per-attribute interval bounds, no
/// sequence number), for embedding queries inside larger records — the
/// SQ/RQ frontier blobs reuse it so a query has exactly one serialized
/// form. DecodeQueryBody consumes its
/// bytes from `dec` and fails (returning false) on truncation or an
/// implausible arity.
void EncodeQueryBody(const interface::Query& q, Encoder* enc);
bool DecodeQueryBody(Decoder* dec, interface::Query* q);

void EncodeResult(uint64_t seq, const interface::QueryResult& result,
                  std::string* out);
/// `expected_width` is the schema arity the client knows; a frame whose
/// tuples disagree is rejected.
common::Status DecodeResult(std::string_view payload, int expected_width,
                            uint64_t* seq, interface::QueryResult* result);
/// Streaming variant for result bodies embedded inside larger records
/// (journal result records): consumes exactly one encoded
/// result from `dec`, leaving any following bytes for the caller.
common::Status DecodeResultBody(Decoder* dec, int expected_width,
                                uint64_t* seq,
                                interface::QueryResult* result);

void EncodeStatus(uint64_t seq, WireStatus code, std::string_view message,
                  std::string* out);
common::Status DecodeStatusFrame(std::string_view payload, uint64_t* seq,
                                 uint16_t* code, std::string* message);

/// Service-level counters a server exposes through kStats frames.
struct ServiceStats {
  /// Fresh client-visible queries answered successfully (replays and
  /// rejections excluded).
  int64_t queries_served = 0;
  /// Successful executions on the backend database.
  int64_t backend_executions = 0;
  /// Retried sequences replayed from per-session reply caches.
  int64_t queries_replayed = 0;
  /// Query BUSY (kRateLimited) responses; EventDrivenServer sends none,
  /// so it reports 0. The field keeps the frame layout unchanged.
  int64_t busy_rejections = 0;
  /// kBudgetExhausted responses issued.
  int64_t budget_rejections = 0;
  int64_t connections_accepted = 0;
  int64_t connections_rejected = 0;
  /// Connections dropped by the server (slow reader, write stall, idle
  /// timeout).
  int64_t connections_shed = 0;
  int64_t protocol_errors = 0;
};

void EncodeStatsRequest(uint64_t seq, std::string* out);
common::Status DecodeStatsRequest(std::string_view payload, uint64_t* seq);

void EncodeStats(uint64_t seq, const ServiceStats& stats, std::string* out);
common::Status DecodeStats(std::string_view payload, uint64_t* seq,
                           ServiceStats* stats);

}  // namespace net
}  // namespace hdsky

#endif  // HDSKY_NET_WIRE_H_
