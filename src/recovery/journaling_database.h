// Durable-session decorator: a HiddenDatabase whose paid answers survive
// process death.
//
// JournalingDatabase wraps any backend and keeps a journal directory (see
// journal.h / checkpoint.h) recording every answer the session paid for.
// On open it rebuilds the replay map from every journal segment in order;
// an Execute whose query is already journaled is served locally at zero
// backend cost. Because the discovery algorithms are deterministic, a
// crashed run restarted over the same journal replays its paid prefix for
// free and continues paying only for genuinely new queries — the backbone
// of crash-consistent resume (docs/robustness.md).
//
// Exactly-once accounting. Before paying for a query the decorator
// journals an *intent* record carrying the wire sequence number the query
// will be sent under (Options::seq_provider wires this to
// service::RemoteHiddenDatabase). With sync_every=1 the intent is durable
// before the backend sees the query, so a crash in the pay window leaves a
// dangling final intent; the resumed session detects it, re-issues that
// exact query under that exact sequence number, and the server's replay
// cache answers without charging the budget a second time.
//
// Checkpoints. After Options::checkpoint_every paid queries the decorator
// marks a checkpoint due; with auto_checkpoint it checkpoints itself at
// the next Execute, otherwise the driver calls Checkpoint() from its own
// boundaries. A checkpoint seals the live segment and opens the next one;
// it never rewrites an answer.
//
// Thread safety: NONE — single-threaded like RemoteHiddenDatabase; a
// CachingDatabase stacked on top (serialize_backend = true) may share it
// across threads.

#ifndef HDSKY_RECOVERY_JOURNALING_DATABASE_H_
#define HDSKY_RECOVERY_JOURNALING_DATABASE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "interface/hidden_database.h"
#include "recovery/checkpoint.h"
#include "recovery/journal.h"

namespace hdsky {
namespace recovery {

class JournalingDatabase : public interface::HiddenDatabase {
 public:
  struct Options {
    /// Journal group-fsync interval. 1 (the default) makes every intent
    /// and answer durable before Execute proceeds — required for strict
    /// exactly-once accounting against a remote server; raise it to trade
    /// a bounded replay window for fewer fsyncs.
    int sync_every = 1;
    /// Paid queries between checkpoints: answers per sealed segment.
    int64_t checkpoint_every = 256;
    /// When true the decorator checkpoints itself at the next Execute once
    /// due (every point between queries is consistent for pure replay).
    /// Drivers that capture frontier state set this false and call
    /// Checkpoint() from their own consistent boundaries.
    bool auto_checkpoint = true;
    /// State blob written by automatic checkpoints (typically just the
    /// algorithm name, EncodeSessionState'd).
    std::string auto_checkpoint_state;
    /// Supplies the wire sequence number the NEXT backend query will be
    /// sent under (RemoteHiddenDatabase::next_seq). Unset: an internal
    /// counter numbers paid queries.
    std::function<uint64_t()> seq_provider;
  };

  struct Stats {
    /// Queries answered from the journal at zero backend cost.
    int64_t replayed = 0;
    /// Queries that reached the backend and were journaled.
    int64_t paid = 0;
    /// Backend failures (journaled as intents only; nothing cached).
    int64_t errors = 0;
  };

  /// Opens (or creates) the journal directory and rebuilds the replay map.
  /// `backend` must outlive the returned object. Fails on interior journal
  /// corruption (a torn sealed segment included), a damaged or missing
  /// manifest or segment, or a schema-width mismatch — never silently
  /// discards paid history. A directory holding an older release's
  /// snapshot is Unsupported.
  static common::Result<std::unique_ptr<JournalingDatabase>> Open(
      interface::HiddenDatabase* backend, const std::string& dir,
      const Options& options);

  ~JournalingDatabase() override;

  using interface::HiddenDatabase::Execute;
  common::Result<interface::QueryResult> Execute(
      const interface::Query& q) override;

  const data::Schema& schema() const override { return backend_->schema(); }
  int k() const override { return backend_->k(); }
  common::Status ValidateQuery(const interface::Query& q) const override {
    return backend_->ValidateQuery(q);
  }

  /// True when the directory held a previous session's state.
  bool resumed() const { return resumed_; }
  /// Session-state blob of the last checkpoint record (empty for fresh
  /// sessions and for journals that never checkpointed).
  const std::string& restored_state() const { return restored_state_; }
  /// Wall time Open spent reading the journal segments.
  double read_ms() const { return read_ms_; }

  /// True when checkpoint_every paid queries have accrued since the last
  /// checkpoint; drivers poll this at frontier-consistent boundaries.
  bool checkpoint_due() const { return checkpoint_due_; }

  /// Seals the live segment: appends `state_blob` as a checkpoint record
  /// (the resume path reads the last one) and fsyncs, creates the next
  /// segment, and atomically swings MANIFEST to it. On failure the session
  /// keeps appending to the current segment (a failed checkpoint loses
  /// nothing).
  common::Status Checkpoint(const std::string& state_blob);

  /// Final checkpoint at the end of a run (or on interrupt): everything
  /// journaled is sealed and `state_blob` becomes the resume state.
  common::Status Finish(const std::string& state_blob);

  /// Forces unsynced journal appends to disk.
  common::Status Sync();

  /// The wire sequence number the next backend query must use: the
  /// dangling intent's number when one exists (so the re-send replays
  /// server-side), else one past the highest journaled number. Wired into
  /// RemoteHiddenDatabase::set_next_seq before the first query.
  uint64_t next_wire_seq() const;

  /// Signature of the dangling final intent, if the previous process died
  /// between paying and journaling the answer.
  const std::optional<std::string>& pending_intent_signature() const {
    return pending_signature_;
  }

  /// Settles the dangling intent (if any) by re-executing its exact query
  /// under its original wire sequence number. The server either replays
  /// the answer it already charged for (free) or executes it fresh
  /// (charged exactly once); either way the intent resolves and the
  /// session's sequence numbers stay aligned with the server's. Used by
  /// federation re-probes: a backend that failed mid-round may resume
  /// against a *newer* dominance snapshot, so its next fresh query can
  /// legitimately differ from the dangling one — the intent must be
  /// settled before the run restarts, not treated as divergence. Simply
  /// dropping it instead would desynchronize the wire sequence (the
  /// server enforces strictly consecutive numbers and replays stale
  /// ones silently). No-op when nothing is pending.
  common::Status ResolvePending();

  const Stats& stats() const { return stats_; }
  int64_t entries() const { return static_cast<int64_t>(replay_.size()); }
  /// The live segment's number: one more than the checkpoints taken.
  int64_t epoch() const { return manifest_.live; }

 private:
  JournalingDatabase(interface::HiddenDatabase* backend, std::string dir,
                     const Options& options)
      : backend_(backend), dir_(std::move(dir)), options_(options) {}

  common::Status OpenImpl();
  /// Replays segment `n` into the replay map. Only the live segment may
  /// end torn or hold no header; its valid length lands in *live_bytes.
  common::Status ReadSegment(int64_t n, int width, int64_t* live_bytes);
  std::string SegmentPath(int64_t n) const {
    return dir_ + "/" + JournalFileName(n);
  }

  interface::HiddenDatabase* backend_;
  std::string dir_;
  Options options_;

  std::unique_ptr<JournalWriter> writer_;
  Manifest manifest_;

  std::unordered_map<std::string, interface::QueryResult> replay_;

  /// Highest wire seq accounted for (every segment + this process).
  uint64_t last_seq_ = 0;
  std::optional<std::string> pending_signature_;
  std::optional<uint64_t> pending_seq_;

  bool resumed_ = false;
  std::string restored_state_;
  double read_ms_ = 0;

  Stats stats_;
  int64_t paid_since_checkpoint_ = 0;
  bool checkpoint_due_ = false;
};

}  // namespace recovery
}  // namespace hdsky

#endif  // HDSKY_RECOVERY_JOURNALING_DATABASE_H_
