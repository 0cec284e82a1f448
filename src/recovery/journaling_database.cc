#include "recovery/journaling_database.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <sys/stat.h>
#include <unistd.h>

#include "common/fs_util.h"
#include "recovery/crash_point.h"

namespace hdsky {
namespace recovery {

using common::Result;
using common::Status;

namespace {

Status MkDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("mkdir " + dir + ": " + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<JournalingDatabase>> JournalingDatabase::Open(
    interface::HiddenDatabase* backend, const std::string& dir,
    const Options& options) {
  std::unique_ptr<JournalingDatabase> db(
      new JournalingDatabase(backend, dir, options));
  HDSKY_RETURN_IF_ERROR(db->OpenImpl());
  return db;
}

JournalingDatabase::~JournalingDatabase() = default;

Status JournalingDatabase::OpenImpl() {
  HDSKY_RETURN_IF_ERROR(MkDir(dir_));
  common::RemoveStaleTempFiles(dir_);
  const int width = backend_->schema().num_attributes();
  const JournalWriter::Options wopts{options_.sync_every};

  auto manifest = ReadManifest(dir_);
  if (!manifest.ok()) {
    if (!manifest.status().IsNotFound()) return manifest.status();
    // Fresh directory. A segment without a manifest is debris from a
    // crash before the very first manifest write — nothing was ever
    // recoverable from it, so clear the slate.
    RemoveSegmentsAfter(dir_, 0);
    HDSKY_ASSIGN_OR_RETURN(writer_,
                           JournalWriter::Create(SegmentPath(1), width, wopts));
    return WriteManifest(dir_, manifest_);
  }

  // Resuming: the manifest names the segments; one past the live segment
  // is a checkpoint that died before its manifest swing.
  resumed_ = true;
  manifest_ = *manifest;
  RemoveSegmentsAfter(dir_, manifest_.live);
  const auto start = std::chrono::steady_clock::now();
  int64_t live_bytes = 0;
  for (int64_t n = manifest_.first; n <= manifest_.live; ++n) {
    HDSKY_RETURN_IF_ERROR(ReadSegment(n, width, &live_bytes));
  }
  read_ms_ = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - start)
                 .count();
  const std::string live = SegmentPath(manifest_.live);
  if (live_bytes == 0) {
    // Created but died before the header reached the disk: an empty file
    // holds nothing, so recreate it whole.
    ::unlink(live.c_str());
    HDSKY_ASSIGN_OR_RETURN(writer_, JournalWriter::Create(live, width, wopts));
    return Status::OK();
  }
  HDSKY_ASSIGN_OR_RETURN(writer_,
                         JournalWriter::OpenForAppend(live, live_bytes, wopts));
  return Status::OK();
}

Status JournalingDatabase::ReadSegment(int64_t n, int width,
                                       int64_t* live_bytes) {
  const std::string path = SegmentPath(n);
  const bool live = n == manifest_.live;
  auto contents = ReadJournalFile(path);
  if (!contents.ok()) {
    if (contents.status().IsNotFound()) {
      return Status::IOError(dir_ + ": manifest names segment " +
                             std::to_string(n) + " but its file is missing");
    }
    return contents.status();
  }
  if (!live && (contents->torn || contents->payloads.empty())) {
    // A sealed segment was fsynced whole before the manifest named its
    // successor, so a short one is damage, never a crash residue.
    return Status::IOError(path + ": sealed journal segment is torn " +
                           "(interior corruption; refusing to resume)");
  }
  if (live && n > manifest_.first && contents->payloads.size() <= 1) {
    // Nothing was written since the previous segment was sealed.
    sealed_state_ = restored_state_;
  }
  if (contents->payloads.empty()) return Status::OK();  // an empty live one
  int journal_width = 0;
  HDSKY_ASSIGN_OR_RETURN(journal_width,
                         DecodeHeaderRecord(contents->payloads[0]));
  if (journal_width != width) {
    return Status::IOError(path + ": journal width " +
                           std::to_string(journal_width) +
                           " does not match schema width " +
                           std::to_string(width));
  }
  RecordType last = RecordType::kHeader;
  for (size_t i = 1; i < contents->payloads.size(); ++i) {
    JournalRecord rec;
    HDSKY_ASSIGN_OR_RETURN(rec, DecodeRecord(contents->payloads[i], width));
    last = rec.type;
    switch (rec.type) {
      case RecordType::kCheckpoint:
        restored_state_ = std::move(rec.state);
        break;
      case RecordType::kIntent:
        last_seq_ = std::max(last_seq_, rec.seq);
        pending_signature_ = std::move(rec.signature);
        pending_seq_ = rec.seq;
        break;
      default:
        last_seq_ = std::max(last_seq_, rec.seq);
        replay_.emplace(std::move(rec.signature), std::move(rec.result));
        pending_signature_.reset();
        pending_seq_.reset();
        break;
    }
  }
  if (!live && last != RecordType::kCheckpoint) {
    // Every seal ends its segment with a checkpoint record, so a sealed
    // segment without one lost records on a frame boundary.
    return Status::IOError(path + ": sealed journal segment does not end "
                           "in its checkpoint record (interior corruption; "
                           "refusing to resume)");
  }
  if (live) *live_bytes = contents->valid_bytes;
  return Status::OK();
}

Result<interface::QueryResult> JournalingDatabase::Execute(
    const interface::Query& q) {
  HDSKY_RETURN_IF_ERROR(ValidateQuery(q));
  if (options_.auto_checkpoint && checkpoint_due_) {
    // Between queries every point is consistent for pure-replay resume.
    // A failed checkpoint loses nothing: the live segment keeps growing
    // and the next Execute retries.
    (void)Checkpoint(options_.auto_checkpoint_state);
  }
  const std::string signature = q.Signature();
  const auto hit = replay_.find(signature);
  if (hit != replay_.end()) {
    ++stats_.replayed;
    return hit->second;
  }

  // Fresh query: journal the intent (with the wire seq it will be sent
  // under) before the backend can charge for it.
  const bool resend_of_pending =
      pending_signature_.has_value() && *pending_signature_ == signature;
  uint64_t seq = 0;
  if (resend_of_pending) {
    // The intent is already durable from a previous attempt (same process
    // retry after an error, or a resumed session finishing a query its
    // predecessor died inside). Re-use its sequence number so the server
    // replays instead of re-charging.
    seq = *pending_seq_;
  } else if (pending_signature_.has_value()) {
    return Status::Internal(
        "resumed run diverged from its journal: the journal ends in an "
        "unresolved intent for a different query (was the session restarted "
        "with different flags?)");
  } else {
    seq = options_.seq_provider ? options_.seq_provider() : last_seq_ + 1;
    HDSKY_RETURN_IF_ERROR(writer_->Append(EncodeIntentRecord(seq, signature)));
    sealed_state_.reset();
    pending_signature_ = signature;
    pending_seq_ = seq;
  }

  auto answer = backend_->Execute(q);
  last_seq_ = std::max(last_seq_, seq);
  if (!answer.ok()) {
    // The intent stays journaled: a retry (this process or the next one)
    // re-sends under the same seq, keeping accounting exact.
    ++stats_.errors;
    return answer.status();
  }
  ++stats_.paid;
  HDSKY_RETURN_IF_ERROR(
      writer_->Append(EncodeResultRecord(seq, signature, answer.value())));
  sealed_state_.reset();
  replay_.emplace(signature, answer.value());
  pending_signature_.reset();
  pending_seq_.reset();
  if (++paid_since_checkpoint_ >= options_.checkpoint_every) {
    checkpoint_due_ = true;
  }
  return answer;
}

Status JournalingDatabase::ResolvePending() {
  if (!pending_signature_.has_value()) return Status::OK();
  // Rebuild the query from its journaled signature (one {lower, upper}
  // Value pair per attribute — Query::Signature is injective over
  // intervals) and push it through Execute: the resend-of-pending path
  // re-sends it under the original wire seq, so the server replays or
  // charges exactly once and the intent clears.
  const std::string signature = *pending_signature_;
  const int width = backend_->schema().num_attributes();
  if (signature.size() !=
      static_cast<size_t>(width) * 2 * sizeof(data::Value)) {
    return Status::Internal(
        "journaled intent signature does not match the schema width");
  }
  interface::Query q(width);
  const char* p = signature.data();
  for (int attr = 0; attr < width; ++attr) {
    data::Value lo = 0;
    data::Value hi = 0;
    std::memcpy(&lo, p, sizeof(lo));
    p += sizeof(lo);
    std::memcpy(&hi, p, sizeof(hi));
    p += sizeof(hi);
    if (lo != interface::Interval::kMin) q.AddAtLeast(attr, lo);
    if (hi != interface::Interval::kMax) q.AddAtMost(attr, hi);
  }
  if (q.Signature() != signature) {
    return Status::Internal("journaled intent signature failed to roundtrip");
  }
  return Execute(q).status();
}

Status JournalingDatabase::Checkpoint(const std::string& state_blob) {
  CrashPointHit("checkpoint.pre_snapshot");
  // Seal: the state record ends the segment, and the fsync makes the
  // whole segment durable before any manifest can name its successor.
  HDSKY_RETURN_IF_ERROR(writer_->Append(EncodeCheckpointRecord(state_blob)));
  HDSKY_RETURN_IF_ERROR(writer_->Sync());
  Manifest next = manifest_;
  ++next.live;
  const std::string path = SegmentPath(next.live);
  // A failed earlier checkpoint attempt may have left next-segment debris.
  ::unlink(path.c_str());
  std::unique_ptr<JournalWriter> next_writer;
  HDSKY_ASSIGN_OR_RETURN(
      next_writer,
      JournalWriter::Create(path, backend_->schema().num_attributes(),
                            JournalWriter::Options{options_.sync_every}));

  CrashPointHit("checkpoint.pre_manifest");
  // The commit point: after this rename recovery reads the new segment as
  // live; before it, the file created above is deleted as debris.
  HDSKY_RETURN_IF_ERROR(WriteManifest(dir_, next));
  CrashPointHit("checkpoint.pre_cleanup");

  writer_ = std::move(next_writer);
  manifest_ = next;
  sealed_state_ = state_blob;
  paid_since_checkpoint_ = 0;
  checkpoint_due_ = false;
  return Status::OK();
}

Status JournalingDatabase::Finish(const std::string& state_blob) {
  // Sealing again would only add an empty segment: a resumed finished
  // journal would grow by one on every rerun.
  if (sealed_state_ == state_blob) return Status::OK();
  return Checkpoint(state_blob);
}

Status JournalingDatabase::Sync() { return writer_->Sync(); }

uint64_t JournalingDatabase::next_wire_seq() const {
  return pending_seq_.has_value() ? *pending_seq_ : last_seq_ + 1;
}

}  // namespace recovery
}  // namespace hdsky
