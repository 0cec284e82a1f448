// The write-ahead query journal: an append-only binary log of every
// answer a discovery session has paid for, durable across crashes.
//
// File layout. A journal is a sequence of CRC-framed records:
//
//   offset  size  field
//   0       4     payload length n (little-endian, <= kMaxRecordBytes)
//   4       4     CRC32C of the payload bytes
//   8       n     payload
//
// The first record is always a header record binding the journal to a
// schema width; every later record is an intent, a result or a checkpoint
// record (see RecordType). Payloads are encoded with the net/wire.h
// Encoder, so a query answer has exactly one serialized form across the
// wire protocol and the journal.
//
// Write discipline. Records are appended with write(2) and group-fsync'd
// every Options::sync_every records (1 = every record durable before
// Append returns — the strict exactly-once setting). A crash can
// therefore leave a *torn tail*: a final record whose bytes only
// partially reached the disk.
//
// Read discipline (the hdsky-cache-v1 hardening rules, binary edition):
//   * a record that extends past end-of-file, or whose CRC fails on the
//     final record, is a torn tail — the reader reports the valid prefix
//     and the writer truncates and continues from there;
//   * a CRC failure or implausible length *followed by more data* is
//     interior corruption — the whole journal is rejected atomically
//     (no partial state escapes), because silent mid-log damage means
//     the replay map would lie about what was paid for.

#ifndef HDSKY_RECOVERY_JOURNAL_H_
#define HDSKY_RECOVERY_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "interface/hidden_database.h"

namespace hdsky {
namespace recovery {

/// Upper bound on one record's payload; anything larger is corruption.
inline constexpr uint32_t kMaxRecordBytes = 1u << 26;  // 64 MiB
inline constexpr size_t kRecordHeaderBytes = 8;

/// CRC32C (Castagnoli), the checksum used by the record framing.
uint32_t Crc32c(std::string_view data);

/// Appends one framed record (length prefix + CRC + payload) to *out.
void AppendFrame(std::string_view payload, std::string* out);

// ---------------------------------------------------------------------------
// Record payloads.

enum class RecordType : uint8_t {
  /// First record of every journal: magic string + schema width.
  kHeader = 0,
  /// "About to pay for this query": written and (in strict mode) synced
  /// BEFORE the backend sees the query, so a crash between paying and
  /// recording the answer leaves a dangling final intent — the resume
  /// path re-sends exactly that query with exactly that wire sequence
  /// number and the server replays its cached answer without charging.
  kIntent = 1,
  /// The paid-for answer, keyed by the query's predicate signature.
  kResult = 2,
  /// A checkpoint's opaque session-state blob (checkpoint.h), the last
  /// record of every sealed segment; a resume reads the last one.
  kCheckpoint = 3,
};

struct JournalRecord {
  RecordType type = RecordType::kResult;
  /// Wire sequence number (remote sessions) or the paid-query ordinal
  /// (local sessions); strictly increasing across intents.
  uint64_t seq = 0;
  /// interface::Query::Signature() of the journaled query.
  std::string signature;
  /// Result records only.
  interface::QueryResult result;
  /// Checkpoint records only.
  std::string state;
};

std::string EncodeHeaderRecord(int width);
std::string EncodeIntentRecord(uint64_t seq, std::string_view signature);
std::string EncodeResultRecord(uint64_t seq, std::string_view signature,
                               const interface::QueryResult& result);
std::string EncodeCheckpointRecord(std::string_view state);

/// Decodes a header record; fails on anything else.
common::Result<int> DecodeHeaderRecord(std::string_view payload);
/// Decodes an intent, result or checkpoint record. `width` is the schema
/// arity the journal header declared; signatures and tuples are validated
/// against it.
common::Result<JournalRecord> DecodeRecord(std::string_view payload,
                                           int width);

// ---------------------------------------------------------------------------
// File reader.

struct JournalContents {
  /// CRC-verified record payloads in append order (header included).
  std::vector<std::string> payloads;
  /// Bytes of the longest valid record prefix; everything past it is a
  /// torn tail to be truncated before appending resumes.
  int64_t valid_bytes = 0;
  /// True when a torn tail was dropped.
  bool torn = false;
};

/// Reads and CRC-verifies a journal file under the torn-tail/interior-
/// corruption rules in the file comment. An empty file yields zero
/// records (a journal created but never written survives that way).
common::Result<JournalContents> ReadJournalFile(const std::string& path);

// ---------------------------------------------------------------------------
// File writer.

class JournalWriter {
 public:
  struct Options {
    /// fsync after every N appended records; 1 = every record.
    int sync_every = 1;
  };

  /// Creates a fresh journal containing a synced header record. Fails if
  /// the file already exists (journals are never silently overwritten).
  static common::Result<std::unique_ptr<JournalWriter>> Create(
      const std::string& path, int width, const Options& options);

  /// Reopens an existing journal for appending, first truncating it to
  /// `valid_bytes` (the torn tail reported by ReadJournalFile).
  static common::Result<std::unique_ptr<JournalWriter>> OpenForAppend(
      const std::string& path, int64_t valid_bytes, const Options& options);

  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Appends one framed record, honoring the group-sync interval. Crash
  /// points: "journal.append.torn" dies after writing only half the
  /// frame; "journal.append.pre_sync" dies after the write but before
  /// any fsync.
  common::Status Append(std::string_view payload);

  /// Forces any unsynced appends to disk.
  common::Status Sync();

  const std::string& path() const { return path_; }

 private:
  JournalWriter(std::string path, int fd, const Options& options)
      : path_(std::move(path)), fd_(fd), options_(options) {}

  common::Status WriteAll(const char* data, size_t size);

  std::string path_;
  int fd_;
  Options options_;
  int unsynced_records_ = 0;
};

}  // namespace recovery
}  // namespace hdsky

#endif  // HDSKY_RECOVERY_JOURNAL_H_
