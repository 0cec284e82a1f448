// EventDrivenServer: the multi-tenant, event-driven hidden-database
// service. It serves any HiddenDatabase over the hdsky wire protocol
// (net/wire.h) to anything from one loopback test client to thousands of
// concurrent discovery sessions.
//
// Architecture
//
//   listener ──► loop 0 ──┐ round-robin
//   conns ◄──► loop 0..L-1 ┘──► backend Execute, in place on the loop
//        nonblocking sockets        (in-memory, paged, callback: every
//        read/write buffers          backend answers on the thread that
//        request pipelining          owns the connection)
//        idle/slow timeouts
//
//  * N event-loop threads (net/event_loop.h) own the sockets: each
//    connection lives on exactly one loop, so connection state is
//    lock-free. The accept path (listener on loop 0) spreads new
//    connections round-robin.
//  * Every query is answered on its connection's loop thread, as it is
//    parsed: there is no executor and no hop to another thread and back.
//    The server simulates the paper's top-k site, whose answer is a
//    k-d walk over memory or a few buffer-pool pages; moving that work
//    to another thread cost more CPU than the work itself
//    (docs/performance.md). A connection is read at most 16 KiB per
//    wake-up, so one wake-up answers at most that many bytes of query
//    frames before the loop's other connections get their turn
//    (docs/service.md records why this is unconditional). A backend
//    that really waits (a CallbackDatabase over a remote site) holds
//    its loop for that wait; serve such a backend with more loops.
//  * Request pipelining: a client may stream many Query frames on one
//    connection without waiting; the server answers strictly in order
//    (the per-session sequence contract requires it), each one before
//    the next frame is parsed, so no query is ever queued server-side.
//  * Overload: accept-time overload (max_connections) sheds whole
//    connections with a transient kRateLimited frame. Past that a
//    connection's load is bounded by what it sends, read 16 KiB at a
//    time; there is no per-query BUSY.
//  * Slow clients: a connection whose unsent reply backlog exceeds
//    write_buffer_limit is shed; above read_pause_bytes the server
//    additionally stops reading from it (backpressure) until the
//    backlog drains. A paused connection whose peer takes no reply byte
//    for 10 s is shed too: a client that floods queries without reading
//    would otherwise sit blocked in its own send until the idle timeout.
//    Idle connections are evicted after idle_timeout_ms.
//
// Sessions, replay and budgets
//
//  A connection opens with Hello (client session id) -> Descriptor
//  (schema, k, remaining budget), then streams Query frames answered by
//  Result or Status frames. Clients tag queries with a per-session
//  sequence number; the server remembers, per session, the last sequence
//  it answered and the encoded reply. A retried sequence (the client
//  never saw the reply: dropped frame, broken connection) is answered
//  from that replay cache without touching the backend, so accounting
//  stays exactly-once under retries. Sessions survive reconnects: the
//  client re-sends its session id in Hello. per_client_query_budget
//  enforces the paper's rate-limit model per session; exhaustion is
//  answered with kBudgetExhausted (permanent), which RemoteHiddenDatabase
//  surfaces as ResourceExhausted — the code discovery algorithms already
//  turn into anytime partial results.
//
// No cross-session answer cache
//
//  Every fresh query reaches the backend, whichever session asks it. The
//  server only simulates the paper's rate-limited top-k site, so an
//  answer shared between sessions would save simulator CPU and never a
//  paid query; the client's own CachingDatabase (--cache) is what saves
//  paid queries.
//
// Wire protocol: RemoteHiddenDatabase and the journal's resume machinery
// speak it; kStatsRequest frames are answered with live ServiceStats so
// load generators can read the served and backend counts remotely.

#ifndef HDSKY_SERVICE_EVENT_SERVER_H_
#define HDSKY_SERVICE_EVENT_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "interface/hidden_database.h"
#include "net/event_loop.h"
#include "net/socket.h"

namespace hdsky {
namespace service {

class EventDrivenServer {
 public:
  struct Options {
    /// IPv4 address to bind; loopback by default.
    std::string bind_address = "127.0.0.1";
    /// 0 picks an ephemeral port; read it back via port().
    uint16_t port = 0;
    /// Event-loop (I/O) threads. 0 = min(4, hardware threads).
    int num_loops = 0;
    /// Ignored: every query is answered on its loop thread. Kept because
    /// perfbench's trace driver still sets it.
    int num_workers = 0;
    /// Concurrent connections; excess gets a best-effort kRateLimited
    /// frame and is closed at accept time.
    int max_connections = 4096;
    /// Per-session query budget (0 = unlimited); charges client-visible
    /// answers, replays never count.
    int64_t per_client_query_budget = 0;
    /// Unsent reply bytes before a slow reader is shed.
    size_t write_buffer_limit = 8u << 20;
    /// Unsent reply bytes above which the server stops reading from the
    /// connection until the backlog drains (must be < write_buffer_limit).
    size_t read_pause_bytes = 1u << 20;
    /// Connections idle this long are evicted (0 = never).
    int idle_timeout_ms = 60000;
    /// Serialize backend Execute calls under one mutex; leave false for
    /// thread-safe backends (TopKInterface with static-order rankings).
    bool serialize_backend = false;
  };

  struct Stats {
    int64_t connections_accepted = 0;
    int64_t connections_rejected = 0;
    /// Connections dropped by the server: slow readers over the write
    /// cap or stalled while paused, and idle-timeout evictions.
    int64_t connections_shed = 0;
    int64_t idle_closed = 0;
    /// Fresh client-visible queries answered successfully.
    int64_t queries_served = 0;
    /// Queries that reached the backend (successful executions).
    int64_t backend_executions = 0;
    /// Always 0: the server has no cross-session cache. Kept because
    /// perfbench's trace driver still prints both.
    int64_t cache_hits = 0;
    int64_t singleflight_joins = 0;
    int64_t queries_replayed = 0;
    /// Always 0: no query is answered BUSY. Kept because perfbench parses
    /// it from the server's summary line.
    int64_t busy_rejections = 0;
    int64_t budget_rejections = 0;
    int64_t protocol_errors = 0;
  };

  /// Binds, listens, spawns the loops. `db` must outlive the server; it
  /// is the single backend all sessions share.
  static common::Result<std::unique_ptr<EventDrivenServer>> Start(
      interface::HiddenDatabase* db, const Options& options);

  ~EventDrivenServer();

  uint16_t port() const { return listener_.port(); }

  /// Stops accepting, closes every connection, joins the loops. Idempotent.
  void Stop();

  Stats stats() const;
  /// The same counters in wire form (what kStats frames carry).
  net::ServiceStats wire_stats() const;

 private:
  /// Replay + budget state of one client session; shared across the
  /// session's reconnects. Protected by its own mutex because two
  /// connections may present the same session id.
  struct Session {
    std::mutex mu;
    uint64_t last_seq = 0;
    bool has_reply = false;
    net::FrameType reply_type = net::FrameType::kStatus;
    std::string reply_payload;
    int64_t queries_used = 0;
  };

  /// One live connection; owned and touched by exactly one loop thread.
  struct Conn {
    uint64_t id = 0;
    size_t loop_index = 0;
    net::Socket sock;
    bool handshaken = false;
    bool dead = false;
    /// Reading paused because the reply backlog crossed read_pause_bytes.
    bool read_paused = false;
    std::string rbuf;
    size_t rpos = 0;
    std::string wbuf;
    size_t wpos = 0;
    bool want_write = false;
    /// Reply bytes the socket has taken so far. While reads are paused
    /// the tick compares it with stall_mark, set when the pause began or
    /// the last time it moved (stall_since), to find a peer that takes
    /// nothing.
    uint64_t bytes_sent = 0;
    uint64_t stall_mark = 0;
    std::chrono::steady_clock::time_point stall_since;
    /// The epoll interest mask currently registered for sock.
    uint32_t interest = 0;
    Session* session = nullptr;
    std::chrono::steady_clock::time_point last_activity;
  };

  EventDrivenServer(interface::HiddenDatabase* db, const Options& options);

  void AcceptReady();
  void AdoptConnection(size_t loop_index, int fd);
  void HandleIo(size_t loop_index, uint64_t conn_id, uint32_t events);
  void HandleRead(Conn* conn);
  void ParseFrames(Conn* conn);
  void HandleFrame(Conn* conn, net::FrameType type,
                   std::string_view payload);
  /// Answers one query in place: replay, budget, then the backend.
  void HandleQuery(Conn* conn, uint64_t seq, const interface::Query& query);
  /// Encodes and enqueues the reply, charges the session budget on
  /// success, and records the reply in the session replay cache.
  void Deliver(Conn* conn, uint64_t seq, const common::Status& status,
               const interface::QueryResult& result);
  void EnqueueFrame(Conn* conn, net::FrameType type,
                    std::string_view payload);
  void FlushWrites(Conn* conn);
  void UpdateInterest(Conn* conn);
  void CloseConn(Conn* conn);
  void TickLoop(size_t loop_index);
  /// Runs the query on the backend (optionally serialized) into *out and
  /// counts it.
  common::Status ExecuteBackend(const interface::Query& query,
                                interface::QueryResult* out);
  Session* GetSession(uint64_t session_id);

  Conn* FindConn(size_t loop_index, uint64_t conn_id);

  interface::HiddenDatabase* db_;
  Options options_;
  net::ServerSocket listener_;
  std::atomic<bool> stopping_{false};
  std::atomic<int> active_connections_{0};
  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<size_t> next_loop_{0};

  std::mutex sessions_mu_;
  std::unordered_map<uint64_t, std::unique_ptr<Session>> sessions_;

  std::mutex backend_mu_;  // only used when serialize_backend

  // Atomic counters: bumped from every loop thread.
  std::atomic<int64_t> connections_accepted_{0};
  std::atomic<int64_t> connections_rejected_{0};
  std::atomic<int64_t> connections_shed_{0};
  std::atomic<int64_t> idle_closed_{0};
  std::atomic<int64_t> queries_served_{0};
  std::atomic<int64_t> backend_executions_{0};
  std::atomic<int64_t> queries_replayed_{0};
  std::atomic<int64_t> budget_rejections_{0};
  std::atomic<int64_t> protocol_errors_{0};

  std::vector<std::unique_ptr<net::EventLoop>> loops_;
  /// conn_maps_[i] and answers_[i] are owned by loop i's thread
  /// exclusively. answers_[i] is the one QueryResult every query on loop
  /// i is answered into, so a steady-state answer allocates nothing.
  std::vector<std::unordered_map<uint64_t, std::unique_ptr<Conn>>> conn_maps_;
  std::vector<interface::QueryResult> answers_;
  std::vector<std::jthread> loop_threads_;  // last: joins first
};

}  // namespace service
}  // namespace hdsky

#endif  // HDSKY_SERVICE_EVENT_SERVER_H_
