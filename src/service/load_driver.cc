#include "service/load_driver.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <arpa/inet.h>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <unordered_map>
#include <utility>

#include "net/event_loop.h"
#include "runtime/thread_pool.h"

namespace hdsky {
namespace service {

using common::Result;
using common::Status;
using net::FrameType;

namespace {

/// splitmix64: the workload must be deterministic and cheap, not
/// statistically fancy.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::vector<interface::Query> GenerateWorkload(const data::Schema& schema,
                                               int count, uint64_t seed) {
  std::vector<interface::Query> out;
  if (count <= 0) return out;
  out.reserve(static_cast<size_t>(count));
  const int m = schema.num_attributes();

  for (int i = 0; i < count; ++i) {
    interface::Query q(m);
    uint64_t h = Mix(seed ^ (static_cast<uint64_t>(i) + 1));
    for (int a = 0; a < m; ++a) {
      const data::AttributeSpec& spec = schema.attribute(a);
      h = Mix(h);
      // Constrain roughly two thirds of the attributes so queries vary
      // in selectivity; an occasional fully unconstrained query is fine.
      if (h % 3 == 0) continue;
      const int64_t size = spec.DomainSize();
      if (size <= 0) continue;
      const uint64_t h1 = Mix(h + 1);
      const uint64_t h2 = Mix(h + 2);
      const data::Value v1 =
          spec.domain_min + static_cast<data::Value>(
                                h1 % static_cast<uint64_t>(size));
      const data::Value v2 =
          spec.domain_min + static_cast<data::Value>(
                                h2 % static_cast<uint64_t>(size));
      // Respect the Section 2.2 taxonomy: the interface rejects
      // predicate forms it does not support, so the workload must only
      // issue legal ones.
      switch (spec.iface) {
        case data::InterfaceType::kRQ:
          q.AddAtLeast(a, std::min(v1, v2));
          q.AddAtMost(a, std::max(v1, v2));
          break;
        case data::InterfaceType::kSQ:
          q.AddAtMost(a, std::max(v1, v2));
          break;
        case data::InterfaceType::kPQ:
          q.AddEquals(a, v1);
          break;
        case data::InterfaceType::kFilterEquality:
          // Equality filters are very selective; apply them rarely.
          if (h % 8 == 0) q.AddEquals(a, v1);
          break;
      }
    }
    out.push_back(std::move(q));
  }
  return out;
}

namespace {

/// The first session id of one run. A server keeps each session's
/// sequence state across connections, so a second run against the same
/// server must not present the first run's ids: every one of its queries
/// would be refused as out of order. Drawn from 2^62 values, which keeps
/// every id of a run nonzero and below 2^63.
uint64_t DrawSessionIdBase() {
  std::random_device rd;
  const uint64_t r =
      (static_cast<uint64_t>(rd()) << 32) ^ rd() ^
      static_cast<uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count());
  return (Mix(r) >> 2) + 1;
}

class LoadDriver {
 public:
  explicit LoadDriver(const LoadOptions& options)
      : options_(options), session_id_base_(DrawSessionIdBase()) {}

  Result<LoadReport> Run();

 private:
  using Clock = std::chrono::steady_clock;

  struct Conn {
    int session_index = 0;
    uint64_t session_id = 0;
    size_t loop_index = 0;
    int fd = -1;
    bool connected = false;
    bool dead = false;
    bool finished_counted = false;
    bool done = false;
    int schema_width = 0;
    std::string rbuf;
    size_t rpos = 0;
    std::string wbuf;
    size_t wpos = 0;
    bool want_write = false;
    /// Next seq to send (1-based; seq i carries workload query i-1).
    uint64_t next_seq = 1;
    /// Sent, reply still pending — replies arrive in this order.
    std::deque<uint64_t> awaiting;
    std::unordered_map<uint64_t, Clock::time_point> sent_at;
  };

  /// Loop-thread-owned accumulator (no locks on the hot path).
  struct LoopState {
    std::vector<uint32_t> latencies_us;
    int64_t completed = 0;
    int sessions_done = 0;
    int sessions_failed = 0;
  };

  Status SetupConnections();
  void HandleIo(Conn* conn, uint32_t events);
  void FinishConnect(Conn* conn);
  void HandleRead(Conn* conn);
  void ParseFrames(Conn* conn);
  void HandleFrame(Conn* conn, FrameType type, std::string_view payload);
  void PumpSend(Conn* conn);
  void SendFrame(Conn* conn, FrameType type, std::string_view payload);
  void FlushWrites(Conn* conn);
  void UpdateInterest(Conn* conn);
  void FailSession(Conn* conn);
  void FinishSession(Conn* conn);
  void OnSessionFinished();
  void Tick(size_t loop_index);
  void RequestStats();
  void StopAll();

  LoadOptions options_;
  /// Session ids of this run: session_id_base_ + session index.
  const uint64_t session_id_base_;
  std::vector<interface::Query> workload_;
  std::mutex workload_mu_;
  std::atomic<bool> workload_ready_{false};

  std::vector<std::unique_ptr<net::EventLoop>> loops_;
  std::vector<std::vector<std::unique_ptr<Conn>>> conns_;
  std::vector<LoopState> loop_states_;

  std::atomic<int> finished_sessions_{0};
  std::atomic<bool> stats_requested_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> timed_out_{false};
  std::atomic<int64_t> end_us_{0};

  std::mutex stats_mu_;
  bool server_stats_valid_ = false;
  net::ServiceStats server_stats_;

  Clock::time_point start_{};
  Clock::time_point deadline_{};
};

Status LoadDriver::SetupConnections() {
  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("load driver needs a numeric IPv4 host: " +
                                   options_.host);
  }
  const size_t num_loops = loops_.size();
  for (int i = 0; i < options_.sessions; ++i) {
    const size_t li = static_cast<size_t>(i) % num_loops;
    auto conn = std::make_unique<Conn>();
    conn->session_index = i;
    conn->session_id = session_id_base_ + static_cast<uint64_t>(i);
    conn->loop_index = li;
    conn->fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                      0);
    if (conn->fd < 0) {
      return Status::IOError(std::string("socket: ") +
                             std::strerror(errno));
    }
    const int one = 1;
    setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (connect(conn->fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) < 0 &&
        errno != EINPROGRESS) {
      close(conn->fd);
      return Status::IOError(std::string("connect: ") +
                             std::strerror(errno));
    }
    Conn* raw = conn.get();
    // Registered before the loop threads start; EPOLLOUT fires when the
    // nonblocking connect resolves.
    HDSKY_RETURN_IF_ERROR(loops_[li]->Add(
        conn->fd, EPOLLOUT | EPOLLIN,
        [this, raw](uint32_t ev) { HandleIo(raw, ev); }));
    conns_[li].push_back(std::move(conn));
  }
  return Status::OK();
}

Result<LoadReport> LoadDriver::Run() {
  if (options_.sessions < 1 || options_.queries_per_session < 1 ||
      options_.pipeline_depth < 1) {
    return Status::InvalidArgument(
        "sessions, queries_per_session, and pipeline_depth must be >= 1");
  }
  if (options_.port == 0) {
    return Status::InvalidArgument("load driver needs an explicit port");
  }
  int num_loops = options_.num_loops;
  if (num_loops <= 0) {
    num_loops = std::min(4, runtime::HardwareThreadCount());
  }
  num_loops = std::min(num_loops, options_.sessions);
  (void)net::EnsureFdCapacity(
      static_cast<uint64_t>(options_.sessions) + 64);

  for (int i = 0; i < num_loops; ++i) {
    HDSKY_ASSIGN_OR_RETURN(auto loop, net::EventLoop::Create());
    loops_.push_back(std::move(loop));
  }
  conns_.resize(loops_.size());
  loop_states_.resize(loops_.size());
  HDSKY_RETURN_IF_ERROR(SetupConnections());

  start_ = Clock::now();
  deadline_ = start_ + std::chrono::milliseconds(options_.total_timeout_ms);
  // The tick only checks the whole-run deadline.
  constexpr int kTickMs = 50;
  {
    std::vector<std::jthread> threads;
    threads.reserve(loops_.size());
    for (size_t i = 0; i < loops_.size(); ++i) {
      threads.emplace_back(
          [this, i] { loops_[i]->Run(kTickMs, [this, i] { Tick(i); }); });
    }
    // jthread destructors join: the run is over when every loop stopped.
  }

  LoadReport report;
  std::vector<uint32_t> latencies;
  for (const LoopState& ls : loop_states_) {
    report.sessions_completed += ls.sessions_done;
    report.sessions_failed += ls.sessions_failed;
    report.queries_completed += ls.completed;
    latencies.insert(latencies.end(), ls.latencies_us.begin(),
                     ls.latencies_us.end());
  }
  const int64_t end_us = end_us_.load();
  report.elapsed_ms =
      end_us > 0 ? static_cast<double>(end_us) / 1000.0
                 : std::chrono::duration<double, std::milli>(Clock::now() -
                                                             start_)
                       .count();
  if (report.elapsed_ms > 0) {
    report.qps = static_cast<double>(report.queries_completed) /
                 (report.elapsed_ms / 1000.0);
  }
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    auto pct = [&](double p) {
      const size_t idx = std::min(
          latencies.size() - 1,
          static_cast<size_t>(p * static_cast<double>(latencies.size())));
      return static_cast<double>(latencies[idx]);
    };
    report.latency_p50_us = pct(0.50);
    report.latency_p99_us = pct(0.99);
    double sum = 0;
    for (uint32_t v : latencies) sum += static_cast<double>(v);
    report.latency_mean_us = sum / static_cast<double>(latencies.size());
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    report.server_stats_valid = server_stats_valid_;
    report.server = server_stats_;
  }
  report.complete = !timed_out_.load() && report.sessions_failed == 0 &&
                    report.sessions_completed == options_.sessions;
  return report;
}

void LoadDriver::Tick(size_t loop_index) {
  if (loop_index == 0 && Clock::now() > deadline_) {
    timed_out_.store(true);
    StopAll();
  }
}

void LoadDriver::StopAll() {
  if (stopped_.exchange(true)) return;
  end_us_.store(std::chrono::duration_cast<std::chrono::microseconds>(
                    Clock::now() - start_)
                    .count());
  for (auto& loop : loops_) loop->Stop();
}

void LoadDriver::HandleIo(Conn* conn, uint32_t events) {
  if (conn->dead) return;
  if (events & (EPOLLERR | EPOLLHUP)) {
    FailSession(conn);
    return;
  }
  if (!conn->connected) {
    if (events & EPOLLOUT) FinishConnect(conn);
    if (conn->dead || !conn->connected) return;
  }
  if (events & EPOLLOUT) {
    FlushWrites(conn);
    if (conn->dead) return;
    UpdateInterest(conn);
  }
  if (events & EPOLLIN) HandleRead(conn);
}

void LoadDriver::FinishConnect(Conn* conn) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 ||
      err != 0) {
    FailSession(conn);
    return;
  }
  conn->connected = true;
  std::string hello;
  net::EncodeHello(conn->session_id, &hello);
  SendFrame(conn, FrameType::kHello, hello);
}

void LoadDriver::HandleRead(Conn* conn) {
  char buf[16384];
  for (;;) {
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->rbuf.append(buf, static_cast<size_t>(n));
      if (n < static_cast<ssize_t>(sizeof(buf))) break;
      continue;
    }
    if (n == 0) {
      FailSession(conn);  // server closed mid-session
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    FailSession(conn);
    return;
  }
  ParseFrames(conn);
}

void LoadDriver::ParseFrames(Conn* conn) {
  while (!conn->dead) {
    const size_t available = conn->rbuf.size() - conn->rpos;
    if (available < net::kFrameHeaderBytes) break;
    auto header = net::DecodeFrameHeader(std::string_view(
        conn->rbuf.data() + conn->rpos, net::kFrameHeaderBytes));
    if (!header.ok()) {
      FailSession(conn);
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

void LoadDriver::HandleFrame(Conn* conn, FrameType type,
                             std::string_view payload) {
  LoopState& ls = loop_states_[conn->loop_index];
  switch (type) {
    case FrameType::kDescriptor: {
      auto descriptor = net::DecodeDescriptor(payload);
      if (!descriptor.ok()) {
        FailSession(conn);
        return;
      }
      conn->schema_width = descriptor->schema.num_attributes();
      if (!workload_ready_.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(workload_mu_);
        if (!workload_ready_.load(std::memory_order_relaxed)) {
          workload_ = GenerateWorkload(descriptor->schema,
                                       options_.queries_per_session,
                                       options_.workload_seed);
          workload_ready_.store(true, std::memory_order_release);
        }
      }
      PumpSend(conn);
      return;
    }
    case FrameType::kResult: {
      uint64_t seq = 0;
      interface::QueryResult result;
      if (!net::DecodeResult(payload, conn->schema_width, &seq, &result)
               .ok()) {
        FailSession(conn);
        return;
      }
      if (conn->awaiting.empty() || conn->awaiting.front() != seq) {
        FailSession(conn);  // successes must arrive strictly in order
        return;
      }
      conn->awaiting.pop_front();
      auto it = conn->sent_at.find(seq);
      if (it != conn->sent_at.end()) {
        const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                            Clock::now() - it->second)
                            .count();
        ls.latencies_us.push_back(static_cast<uint32_t>(
            std::min<int64_t>(us, std::numeric_limits<uint32_t>::max())));
        conn->sent_at.erase(it);
      }
      ls.completed += 1;
      if (seq == static_cast<uint64_t>(options_.queries_per_session)) {
        FinishSession(conn);
        return;
      }
      PumpSend(conn);
      return;
    }
    case FrameType::kStatus:
      // Every status is terminal for the session: the server answers no
      // query BUSY, and a kRateLimited here is a connection it refused.
      FailSession(conn);
      return;
    case FrameType::kStats: {
      uint64_t seq = 0;
      net::ServiceStats stats;
      if (net::DecodeStats(payload, &seq, &stats).ok()) {
        std::lock_guard<std::mutex> lock(stats_mu_);
        server_stats_ = stats;
        server_stats_valid_ = true;
      }
      StopAll();
      return;
    }
    default:
      FailSession(conn);
      return;
  }
}

void LoadDriver::PumpSend(Conn* conn) {
  if (conn->dead || conn->done) return;
  if (!workload_ready_.load(std::memory_order_acquire)) return;
  while (static_cast<int>(conn->awaiting.size()) <
             options_.pipeline_depth &&
         conn->next_seq <=
             static_cast<uint64_t>(options_.queries_per_session)) {
    const uint64_t seq = conn->next_seq++;
    std::string payload;
    net::EncodeQuery(seq, workload_[seq - 1], &payload);
    conn->sent_at[seq] = Clock::now();
    conn->awaiting.push_back(seq);
    SendFrame(conn, FrameType::kQuery, payload);
    if (conn->dead) return;
  }
}

void LoadDriver::SendFrame(Conn* conn, FrameType type,
                           std::string_view payload) {
  conn->wbuf += net::EncodeFrameHeader(
      type, static_cast<uint32_t>(payload.size()));
  conn->wbuf.append(payload.data(), payload.size());
  FlushWrites(conn);
  if (!conn->dead) UpdateInterest(conn);
}

void LoadDriver::FlushWrites(Conn* conn) {
  while (conn->wpos < conn->wbuf.size()) {
    const ssize_t n = send(conn->fd, conn->wbuf.data() + conn->wpos,
                           conn->wbuf.size() - conn->wpos, MSG_NOSIGNAL);
    if (n > 0) {
      conn->wpos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      conn->want_write = true;
      return;
    }
    FailSession(conn);
    return;
  }
  conn->wbuf.clear();
  conn->wpos = 0;
  conn->want_write = false;
}

void LoadDriver::UpdateInterest(Conn* conn) {
  if (conn->dead) return;
  uint32_t events = EPOLLIN;
  if (!conn->connected || conn->want_write) events |= EPOLLOUT;
  (void)loops_[conn->loop_index]->Modify(conn->fd, events);
}

void LoadDriver::FailSession(Conn* conn) {
  if (conn->dead) return;
  conn->dead = true;
  loops_[conn->loop_index]->Remove(conn->fd);
  close(conn->fd);
  conn->fd = -1;
  if (!conn->finished_counted) {
    conn->finished_counted = true;
    loop_states_[conn->loop_index].sessions_failed += 1;
    OnSessionFinished();
  } else if (stats_requested_.load()) {
    // A finished connection dying after the stats probe went out may BE
    // the probe; no kStats can arrive anymore, so shut down without it.
    StopAll();
  }
}

void LoadDriver::FinishSession(Conn* conn) {
  if (conn->finished_counted) return;
  conn->finished_counted = true;
  conn->done = true;
  loop_states_[conn->loop_index].sessions_done += 1;
  // The connection stays open (sustained concurrency): it idles until
  // the stats exchange / shutdown.
  OnSessionFinished();
}

void LoadDriver::OnSessionFinished() {
  if (finished_sessions_.fetch_add(1) + 1 != options_.sessions) return;
  if (!options_.fetch_server_stats) {
    StopAll();
    return;
  }
  RequestStats();
}

void LoadDriver::RequestStats() {
  if (stats_requested_.exchange(true)) return;
  // The stats probe rides on session 0's connection (loop 0); fall back
  // to plain shutdown when it did not survive.
  loops_[0]->Post([this] {
    Conn* probe = nullptr;
    for (auto& conn : conns_[0]) {
      if (!conn->dead) {
        probe = conn.get();
        break;
      }
    }
    if (probe == nullptr) {
      StopAll();
      return;
    }
    std::string payload;
    net::EncodeStatsRequest(1, &payload);
    SendFrame(probe, FrameType::kStatsRequest, payload);
  });
}

}  // namespace

Result<LoadReport> RunLoad(const LoadOptions& options) {
  LoadDriver driver(options);
  return driver.Run();
}

}  // namespace service
}  // namespace hdsky
