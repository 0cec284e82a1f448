#include "service/event_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "net/wire.h"
#include "runtime/thread_pool.h"

namespace hdsky {
namespace service {

using common::Result;
using common::Status;
using net::FrameType;
using net::WireStatus;

namespace {

/// A connection whose reads are paused and whose peer has taken no reply
/// byte for this long is shed as a slow reader. A client that floods
/// queries without reading would otherwise sit blocked in its own send
/// until the idle timeout.
constexpr auto kWriteStallTimeout = std::chrono::seconds(10);

}  // namespace

Result<std::unique_ptr<EventDrivenServer>> EventDrivenServer::Start(
    interface::HiddenDatabase* db, const Options& options) {
  if (db == nullptr) {
    return Status::InvalidArgument("backend database must not be null");
  }
  if (options.max_connections < 1) {
    return Status::InvalidArgument("max_connections must be >= 1");
  }
  if (options.per_client_query_budget < 0) {
    return Status::InvalidArgument("per_client_query_budget must be >= 0");
  }
  if (options.num_loops < 0) {
    return Status::InvalidArgument("num_loops must be >= 0");
  }
  if (options.write_buffer_limit > 0 &&
      options.read_pause_bytes >= options.write_buffer_limit) {
    return Status::InvalidArgument(
        "read_pause_bytes must be below write_buffer_limit");
  }

  auto server = std::unique_ptr<EventDrivenServer>(
      new EventDrivenServer(db, options));
  Options& opts = server->options_;
  if (opts.num_loops == 0) {
    opts.num_loops = std::min(4, runtime::HardwareThreadCount());
  }

  // Best effort: thousands of sessions need more than the default 1024
  // soft fd limit; a failure surfaces later as accept errors, exactly
  // like any other fd exhaustion.
  (void)net::EnsureFdCapacity(
      static_cast<uint64_t>(opts.max_connections) + 64);

  HDSKY_ASSIGN_OR_RETURN(
      server->listener_,
      net::ServerSocket::Listen(opts.bind_address, opts.port,
                                std::min(opts.max_connections, 4096)));
  HDSKY_RETURN_IF_ERROR(net::SetNonBlocking(server->listener_.fd()));

  server->conn_maps_.resize(static_cast<size_t>(opts.num_loops));
  for (int i = 0; i < opts.num_loops; ++i) {
    HDSKY_ASSIGN_OR_RETURN(auto loop, net::EventLoop::Create());
    server->loops_.push_back(std::move(loop));
  }
  server->answers_.resize(server->loops_.size());

  // Listener lives on loop 0. Registered before the loop threads start,
  // which is the other moment Add may be called safely off-thread.
  EventDrivenServer* s = server.get();
  HDSKY_RETURN_IF_ERROR(server->loops_[0]->Add(
      server->listener_.fd(), EPOLLIN, [s](uint32_t) { s->AcceptReady(); }));

  const int tick_ms =
      opts.idle_timeout_ms > 0
          ? std::clamp(opts.idle_timeout_ms / 4, 10, 500)
          : 500;
  for (size_t i = 0; i < server->loops_.size(); ++i) {
    server->loop_threads_.emplace_back([s, i, tick_ms] {
      s->loops_[i]->Run(tick_ms, [s, i] { s->TickLoop(i); });
    });
  }
  return server;
}

EventDrivenServer::EventDrivenServer(interface::HiddenDatabase* db,
                                     const Options& options)
    : db_(db), options_(options) {}

EventDrivenServer::~EventDrivenServer() { Stop(); }

void EventDrivenServer::Stop() {
  if (stopping_.exchange(true)) return;
  for (auto& loop : loops_) loop->Stop();
  loop_threads_.clear();  // joins
  listener_.Close();
  // No loop thread is alive, so the connection maps are safe to clear
  // from here; Socket destructors close the fds.
  for (auto& m : conn_maps_) m.clear();
}

EventDrivenServer::Stats EventDrivenServer::stats() const {
  Stats s;
  s.connections_accepted = connections_accepted_.load();
  s.connections_rejected = connections_rejected_.load();
  s.connections_shed = connections_shed_.load();
  s.idle_closed = idle_closed_.load();
  s.queries_served = queries_served_.load();
  s.backend_executions = backend_executions_.load();
  s.queries_replayed = queries_replayed_.load();
  s.budget_rejections = budget_rejections_.load();
  s.protocol_errors = protocol_errors_.load();
  return s;
}

net::ServiceStats EventDrivenServer::wire_stats() const {
  const Stats s = stats();
  net::ServiceStats w;
  w.queries_served = s.queries_served;
  w.backend_executions = s.backend_executions;
  w.queries_replayed = s.queries_replayed;
  w.busy_rejections = s.busy_rejections;
  w.budget_rejections = s.budget_rejections;
  w.connections_accepted = s.connections_accepted;
  w.connections_rejected = s.connections_rejected;
  w.connections_shed = s.connections_shed;
  w.protocol_errors = s.protocol_errors;
  return w;
}

EventDrivenServer::Session* EventDrivenServer::GetSession(
    uint64_t session_id) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    it = sessions_.emplace(session_id, std::make_unique<Session>()).first;
  }
  return it->second.get();
}

EventDrivenServer::Conn* EventDrivenServer::FindConn(size_t loop_index,
                                                     uint64_t conn_id) {
  auto& map = conn_maps_[loop_index];
  auto it = map.find(conn_id);
  return it == map.end() ? nullptr : it->second.get();
}

// ---------------------------------------------------------------------------
// Accept path.

void EventDrivenServer::AcceptReady() {
  for (;;) {
    int fd = accept4(listener_.fd(), nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or transient accept failure
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    const int active = active_connections_.fetch_add(1);
    if (active >= options_.max_connections) {
      active_connections_.fetch_sub(1);
      connections_rejected_.fetch_add(1);
      // Best-effort transient rejection; a fresh socket's send buffer is
      // empty, so this tiny frame virtually always fits.
      std::string payload;
      net::EncodeStatus(0, WireStatus::kRateLimited,
                        "connection limit reached, retry later", &payload);
      const std::string frame =
          net::EncodeFrameHeader(FrameType::kStatus,
                                 static_cast<uint32_t>(payload.size())) +
          payload;
      (void)send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      close(fd);
      continue;
    }
    connections_accepted_.fetch_add(1);
    const size_t li = next_loop_.fetch_add(1) % loops_.size();
    loops_[li]->Post([this, li, fd] { AdoptConnection(li, fd); });
  }
}

void EventDrivenServer::AdoptConnection(size_t loop_index, int fd) {
  auto conn = std::make_unique<Conn>();
  conn->id = next_conn_id_.fetch_add(1);
  conn->loop_index = loop_index;
  conn->sock = net::Socket(fd);
  conn->last_activity = std::chrono::steady_clock::now();
  conn->interest = EPOLLIN;
  const uint64_t id = conn->id;
  const Status s = loops_[loop_index]->Add(
      fd, conn->interest,
      [this, loop_index, id](uint32_t ev) { HandleIo(loop_index, id, ev); });
  if (!s.ok()) {
    active_connections_.fetch_sub(1);
    return;  // conn destructor closes fd
  }
  conn_maps_[loop_index].emplace(id, std::move(conn));
}

void EventDrivenServer::CloseConn(Conn* conn) {
  if (conn->dead) return;
  conn->dead = true;
  const size_t li = conn->loop_index;
  const uint64_t id = conn->id;
  loops_[li]->Remove(conn->sock.fd());
  // Destruction is deferred to a posted task so every frame currently on
  // the call stack may keep using the Conn it holds.
  loops_[li]->Post([this, li, id] {
    if (conn_maps_[li].erase(id) > 0) active_connections_.fetch_sub(1);
  });
}

void EventDrivenServer::TickLoop(size_t loop_index) {
  const auto now = std::chrono::steady_clock::now();
  const auto idle_limit = std::chrono::milliseconds(options_.idle_timeout_ms);
  for (auto& [id, conn] : conn_maps_[loop_index]) {
    if (conn->dead) continue;
    if (conn->read_paused) {
      // Paused reads wait for the peer to drain its replies. A peer that
      // takes none is a slow reader, whatever it still tries to send.
      if (conn->bytes_sent != conn->stall_mark) {
        conn->stall_mark = conn->bytes_sent;
        conn->stall_since = now;
      } else if (now - conn->stall_since > kWriteStallTimeout) {
        connections_shed_.fetch_add(1);
        CloseConn(conn.get());
        continue;
      }
    }
    if (options_.idle_timeout_ms <= 0) continue;
    if (now - conn->last_activity > idle_limit) {
      idle_closed_.fetch_add(1);
      connections_shed_.fetch_add(1);
      CloseConn(conn.get());
    }
  }
}

// ---------------------------------------------------------------------------
// Per-connection I/O.

void EventDrivenServer::HandleIo(size_t loop_index, uint64_t conn_id,
                                 uint32_t events) {
  Conn* conn = FindConn(loop_index, conn_id);
  if (conn == nullptr || conn->dead) return;
  if (events & (EPOLLERR | EPOLLHUP)) {
    CloseConn(conn);
    return;
  }
  if (events & EPOLLOUT) {
    FlushWrites(conn);
    if (conn->dead) return;
    if (conn->read_paused &&
        conn->wbuf.size() - conn->wpos <= options_.read_pause_bytes / 2) {
      conn->read_paused = false;
    }
    UpdateInterest(conn);
  }
  if ((events & EPOLLIN) && !conn->read_paused) {
    HandleRead(conn);
  }
}

void EventDrivenServer::HandleRead(Conn* conn) {
  // One read per wake-up. Queries are answered as they are parsed, so
  // this bounds the work one connection does before the loop's other
  // ready connections get their turn; epoll is level-triggered, so bytes
  // left in the socket bring it back.
  char buf[16384];
  ssize_t n;
  do {
    n = recv(conn->sock.fd(), buf, sizeof(buf), 0);
  } while (n < 0 && errno == EINTR);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
  if (n <= 0) {  // peer closed or reset
    CloseConn(conn);
    return;
  }
  conn->rbuf.append(buf, static_cast<size_t>(n));
  conn->last_activity = std::chrono::steady_clock::now();
  ParseFrames(conn);
}

void EventDrivenServer::ParseFrames(Conn* conn) {
  while (!conn->dead) {
    const size_t available = conn->rbuf.size() - conn->rpos;
    if (available < net::kFrameHeaderBytes) break;
    auto header = net::DecodeFrameHeader(std::string_view(
        conn->rbuf.data() + conn->rpos, net::kFrameHeaderBytes));
    if (!header.ok()) {
      protocol_errors_.fetch_add(1);
      CloseConn(conn);
      return;
    }
    const size_t need = net::kFrameHeaderBytes + header->payload_len;
    if (available < need) break;
    const std::string_view payload(
        conn->rbuf.data() + conn->rpos + net::kFrameHeaderBytes,
        header->payload_len);
    conn->rpos += need;
    HandleFrame(conn, header->type, payload);
  }
  if (conn->rpos > 65536 && conn->rpos * 2 >= conn->rbuf.size()) {
    conn->rbuf.erase(0, conn->rpos);
    conn->rpos = 0;
  }
}

void EventDrivenServer::HandleFrame(Conn* conn, FrameType type,
                                    std::string_view payload) {
  if (!conn->handshaken) {
    uint64_t session_id = 0;
    if (type != FrameType::kHello ||
        !net::DecodeHello(payload, &session_id).ok()) {
      protocol_errors_.fetch_add(1);
      CloseConn(conn);
      return;
    }
    conn->session = GetSession(session_id);
    conn->handshaken = true;
    int64_t remaining = -1;
    if (options_.per_client_query_budget > 0) {
      std::lock_guard<std::mutex> lock(conn->session->mu);
      remaining =
          options_.per_client_query_budget - conn->session->queries_used;
      if (remaining < 0) remaining = 0;
    }
    std::string reply;
    net::EncodeDescriptor(db_->schema(), db_->k(), remaining, &reply);
    EnqueueFrame(conn, FrameType::kDescriptor, reply);
    return;
  }

  switch (type) {
    case FrameType::kQuery: {
      uint64_t seq = 0;
      interface::Query query;
      const Status s = net::DecodeQuery(payload, &seq, &query);
      if (!s.ok()) {
        protocol_errors_.fetch_add(1);
        std::string reply;
        net::EncodeStatus(0, WireStatus::kInvalidArgument, s.message(),
                          &reply);
        EnqueueFrame(conn, FrameType::kStatus, reply);
        if (!conn->dead) CloseConn(conn);
        return;
      }
      HandleQuery(conn, seq, query);
      return;
    }
    case FrameType::kStatsRequest: {
      uint64_t seq = 0;
      if (!net::DecodeStatsRequest(payload, &seq).ok()) {
        protocol_errors_.fetch_add(1);
        CloseConn(conn);
        return;
      }
      // Answered in frame order, like queries (load generators ask after
      // their workload has been answered).
      std::string reply;
      net::EncodeStats(seq, wire_stats(), &reply);
      EnqueueFrame(conn, FrameType::kStats, reply);
      return;
    }
    default: {
      protocol_errors_.fetch_add(1);
      std::string reply;
      net::EncodeStatus(0, WireStatus::kInvalidArgument,
                        std::string("unexpected ") +
                            net::FrameTypeToString(type) + " frame",
                        &reply);
      EnqueueFrame(conn, FrameType::kStatus, reply);
      if (!conn->dead) CloseConn(conn);
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Query processing.

void EventDrivenServer::HandleQuery(Conn* conn, uint64_t seq,
                                    const interface::Query& query) {
  Session* session = conn->session;
  {
    // Everything written while the session lock is held; the reply frame
    // is enqueued after release (EnqueueFrame may shed the connection).
    net::FrameType reply_type = FrameType::kStatus;
    std::string reply;
    bool have_reply = false;
    {
      std::lock_guard<std::mutex> lock(session->mu);
      if (session->has_reply && seq == session->last_seq) {
        // Retried sequence: replay the cached reply; neither the backend
        // nor the budget sees the query a second time.
        queries_replayed_.fetch_add(1);
        reply_type = session->reply_type;
        reply = session->reply_payload;
        have_reply = true;
      } else {
        const uint64_t expected =
            session->has_reply ? session->last_seq + 1 : seq;
        if (seq != expected || seq == 0) {
          protocol_errors_.fetch_add(1);
          net::EncodeStatus(
              seq, WireStatus::kInvalidArgument,
              "out-of-order sequence number " + std::to_string(seq),
              &reply);
          have_reply = true;
        } else if (options_.per_client_query_budget > 0 &&
                   session->queries_used >=
                       options_.per_client_query_budget) {
          budget_rejections_.fetch_add(1);
          net::EncodeStatus(seq, WireStatus::kBudgetExhausted,
                            "per-client query budget exhausted", &reply);
          session->last_seq = seq;
          session->has_reply = true;
          session->reply_type = FrameType::kStatus;
          session->reply_payload = reply;
          have_reply = true;
        }
      }
    }
    if (have_reply) {
      EnqueueFrame(conn, reply_type, reply);
      return;
    }
  }

  // Fresh query: answered right here, on this loop thread, into the
  // loop's reused answer buffer.
  interface::QueryResult& answer = answers_[conn->loop_index];
  const Status s = ExecuteBackend(query, &answer);
  Deliver(conn, seq, s, answer);
}

Status EventDrivenServer::ExecuteBackend(const interface::Query& query,
                                         interface::QueryResult* out) {
  Status s;
  if (options_.serialize_backend) {
    std::lock_guard<std::mutex> lock(backend_mu_);
    s = db_->Execute(query, out);
  } else {
    s = db_->Execute(query, out);
  }
  if (s.ok()) backend_executions_.fetch_add(1);
  return s;
}

void EventDrivenServer::Deliver(Conn* conn, uint64_t seq,
                                const Status& status,
                                const interface::QueryResult& result) {
  std::string payload;
  FrameType type;
  if (status.ok()) {
    type = FrameType::kResult;
    net::EncodeResult(seq, result, &payload);
  } else {
    type = FrameType::kStatus;
    net::EncodeStatus(seq, net::WireStatusFromStatus(status),
                      status.message(), &payload);
  }
  {
    std::lock_guard<std::mutex> lock(conn->session->mu);
    if (status.ok()) conn->session->queries_used += 1;
    conn->session->last_seq = seq;
    conn->session->has_reply = true;
    conn->session->reply_type = type;
    conn->session->reply_payload = payload;
  }
  if (status.ok()) queries_served_.fetch_add(1);
  EnqueueFrame(conn, type, payload);
}

// ---------------------------------------------------------------------------
// Write path.

void EventDrivenServer::EnqueueFrame(Conn* conn, FrameType type,
                                     std::string_view payload) {
  if (conn->dead) return;
  conn->wbuf += net::EncodeFrameHeader(
      type, static_cast<uint32_t>(payload.size()));
  conn->wbuf.append(payload.data(), payload.size());
  FlushWrites(conn);
  if (conn->dead) return;
  const size_t backlog = conn->wbuf.size() - conn->wpos;
  if (options_.write_buffer_limit > 0 &&
      backlog > options_.write_buffer_limit) {
    // Slow reader: shedding beats buffering without bound.
    connections_shed_.fetch_add(1);
    CloseConn(conn);
    return;
  }
  if (backlog > options_.read_pause_bytes && !conn->read_paused) {
    conn->read_paused = true;
    conn->stall_mark = conn->bytes_sent;  // TickLoop's stall clock starts
    conn->stall_since = std::chrono::steady_clock::now();
  }
  UpdateInterest(conn);
}

void EventDrivenServer::FlushWrites(Conn* conn) {
  while (conn->wpos < conn->wbuf.size()) {
    const ssize_t n =
        send(conn->sock.fd(), conn->wbuf.data() + conn->wpos,
             conn->wbuf.size() - conn->wpos, MSG_NOSIGNAL);
    if (n > 0) {
      conn->wpos += static_cast<size_t>(n);
      conn->bytes_sent += static_cast<uint64_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      conn->want_write = true;
      return;
    }
    CloseConn(conn);  // peer reset / broken pipe
    return;
  }
  conn->wbuf.clear();
  conn->wpos = 0;
  conn->want_write = false;
}

void EventDrivenServer::UpdateInterest(Conn* conn) {
  if (conn->dead) return;
  uint32_t events = 0;
  if (!conn->read_paused) events |= EPOLLIN;
  if (conn->want_write) events |= EPOLLOUT;
  if (events == 0) events = EPOLLOUT;  // paused + drained: wait for writable
  // Most replies leave the mask as it was; skip the syscall then.
  if (events == conn->interest) return;
  if (loops_[conn->loop_index]->Modify(conn->sock.fd(), events).ok()) {
    conn->interest = events;
  }
}

}  // namespace service
}  // namespace hdsky
