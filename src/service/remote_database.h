// RemoteHiddenDatabase: the client half of the network service — a
// HiddenDatabase whose Execute travels over TCP to an EventDrivenServer
// (tools/hdsky_serve). Because every discovery algorithm programs against
// the HiddenDatabase interface, SQ/RQ/PQ/MIXED/MQ-DB-SKY and the sky-band
// variants run over the network *unchanged*.
//
// Failure policy:
//  * Transient failures — connection loss, I/O timeouts, truncated or
//    malformed frames, kRateLimited statuses — are retried up to
//    Options::max_attempts with bounded exponential backoff plus jitter
//    (full-jitter on the upper half of the window, seeded and
//    deterministic for tests).
//  * Permanent statuses from the server (Unsupported, kBudgetExhausted,
//    InvalidArgument, ...) are surfaced honestly through the existing
//    common::Status model: kBudgetExhausted maps to ResourceExhausted,
//    exactly what in-process discovery sees when TopKInterface's budget
//    runs dry, so anytime behavior is identical locally and remotely.
//  * When retries run out, Execute fails Unavailable with a descriptive
//    message carrying the last underlying error — it never hangs and never
//    lies. Whether the backend kept shedding load (kRateLimited past the
//    retry budget) or the link itself kept dying, the meaning is the same:
//    the site is unreachable right now, come back later — distinct from
//    the ResourceExhausted a spent query budget produces ("budget is
//    gone") and from IOError (interior protocol corruption). Federation
//    failover and the 69/EX_UNAVAILABLE exit code key off this.
//
// Retries cannot double-count queries: every query carries a session-scoped
// sequence number and the server replays its cached answer for a sequence
// it has already executed (see service/event_server.h).
//
// Thread safety: NOT thread-safe (one connection, one in-flight query).
// Share one remote session across threads by stacking
// interface::CachingDatabase on top (serialize_backend = true, the
// default) — which also short-circuits repeated queries before they
// touch the network.

#ifndef HDSKY_SERVICE_REMOTE_DATABASE_H_
#define HDSKY_SERVICE_REMOTE_DATABASE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.h"
#include "common/status.h"
#include "interface/hidden_database.h"
#include "net/socket.h"

namespace hdsky {
namespace service {

class RemoteHiddenDatabase : public interface::HiddenDatabase {
 public:
  struct Options {
    int connect_timeout_ms = 5000;
    /// Per-frame send/recv deadline; a stalled server turns into a
    /// transient failure after this long.
    int io_timeout_ms = 5000;
    /// Total tries per query (first attempt + retries).
    int max_attempts = 5;
    /// Backoff before retry r (1-based) is drawn uniformly from
    /// [d/2, d] with d = min(initial_backoff_ms << (r-1), max_backoff_ms).
    int initial_backoff_ms = 10;
    int max_backoff_ms = 2000;
    /// Session identity presented to the server; 0 derives a random one.
    /// Reusing an id resumes that session's budget and replay state.
    uint64_t session_id = 0;
    /// Seed for backoff jitter; 0 derives it from the session id.
    uint64_t jitter_seed = 0;
  };

  /// Per-connection counters, cumulative over the session's lifetime.
  /// The federation budget scheduler reads these to weigh a backend's
  /// observed network cost, and hdsky_loadgen reports them per probe.
  struct Stats {
    /// Queries answered by the server (each counted once, however many
    /// network attempts it took).
    int64_t remote_queries = 0;
    /// Retry attempts across all queries.
    int64_t retries = 0;
    /// Reconnects after the initial connection.
    int64_t reconnects = 0;
    /// kRateLimited bounces absorbed by backoff.
    int64_t rate_limited = 0;
    /// Wire bytes written / read, frame headers included (handshake and
    /// resent retries too — this is what actually crossed the socket).
    int64_t bytes_sent = 0;
    int64_t bytes_received = 0;
    /// Total milliseconds spent asleep in retry backoff.
    int64_t backoff_ms = 0;
    /// Queries that exhausted the retry budget and failed Unavailable.
    /// The federation coordinator's health machine reads this as its
    /// wire-level failure signal.
    int64_t failed_queries = 0;
  };

  /// Connects, performs the Hello/Descriptor handshake, and captures the
  /// server's schema and k. Fails fast if the server is unreachable.
  static common::Result<std::unique_ptr<RemoteHiddenDatabase>> Connect(
      const std::string& host, uint16_t port, const Options& options);
  static common::Result<std::unique_ptr<RemoteHiddenDatabase>> Connect(
      const std::string& host, uint16_t port) {
    return Connect(host, port, Options());
  }

  /// Executes remotely with retry/backoff as described above.
  using interface::HiddenDatabase::Execute;
  common::Result<interface::QueryResult> Execute(
      const interface::Query& q) override;

  const data::Schema& schema() const override { return schema_; }
  int k() const override { return k_; }

  const Stats& stats() const { return stats_; }
  /// Remaining per-client budget reported by the server at the last
  /// handshake; -1 = unlimited.
  int64_t server_remaining_budget() const { return remaining_budget_; }
  uint64_t session_id() const { return options_.session_id; }

  /// The sequence number the next query will be sent under. A durable
  /// session journals this alongside each query intent so a resumed
  /// process can re-send a possibly-charged query under its original
  /// number and hit the server's replay cache (src/recovery).
  uint64_t next_seq() const { return next_seq_; }
  /// Fast-forwards the sequence counter to a journaled position. Only
  /// legal before the first Execute of this object's lifetime; the server
  /// rejects out-of-order numbers, so an arbitrary mid-session jump would
  /// simply fail loudly.
  void set_next_seq(uint64_t seq) { next_seq_ = seq; }

 private:
  RemoteHiddenDatabase(std::string host, uint16_t port, Options options)
      : host_(std::move(host)), port_(port), options_(options) {}

  /// (Re)establishes the connection + handshake if needed.
  common::Status EnsureConnected();
  void Disconnect() { socket_.Close(); }
  /// Sleeps the jittered backoff before (1-based) retry `attempt`.
  void Backoff(int attempt);
  /// WriteFrame/ReadFrame wrappers that account wire bytes in stats_.
  common::Status SendFrame(net::FrameType type, const std::string& payload);
  common::Status RecvFrame(net::Frame* frame);

  std::string host_;
  uint16_t port_;
  Options options_;
  data::Schema schema_;
  int k_ = 0;
  int64_t remaining_budget_ = -1;
  net::Socket socket_;
  bool ever_connected_ = false;
  uint64_t next_seq_ = 1;
  common::Rng jitter_;
  Stats stats_;
};

}  // namespace service
}  // namespace hdsky

#endif  // HDSKY_SERVICE_REMOTE_DATABASE_H_
