// FaultInjectingProxy: a frame-aware man-in-the-middle for robustness
// testing. It listens like an EventDrivenServer, forwards every frame to a
// real upstream server, and injects faults by policy:
//
//   * drop      — swallow a frame and kill the connection (the client sees
//                 a reset or a read timeout, exactly like a flaky network),
//   * truncate  — forward only a prefix of the frame's bytes, then kill
//                 the connection (exercises the decoder hardening),
//   * rate-limit— bounce a client Query with a spurious kRateLimited
//                 status without consulting the upstream (exercises the
//                 client's backoff), and
//   * delay     — sleep before forwarding (exercises timeouts).
//
// All randomness flows through common::Rng seeded from Policy::seed plus
// the connection index and direction, so a given test run injects the
// same faults every time — a deterministic adversarial network.
//
// Because the proxy understands frame boundaries, faults land on whole
// protocol messages (or deliberate prefixes of them), which is what makes
// the exactly-once retry machinery of server/client testable: a dropped
// Result frame forces a retry of a query the upstream has already
// executed and must replay from its session cache.

#ifndef HDSKY_SERVICE_FAULT_PROXY_H_
#define HDSKY_SERVICE_FAULT_PROXY_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/rng.h"
#include "common/status.h"
#include "net/socket.h"

namespace hdsky {
namespace service {

class FaultInjectingProxy {
 public:
  struct Policy {
    /// Root seed for all fault decisions.
    uint64_t seed = 1;
    /// Probability a forwarded frame is dropped (connection killed).
    double drop_prob = 0.0;
    /// Probability a forwarded frame is truncated mid-bytes.
    double truncate_prob = 0.0;
    /// Probability a client Query is bounced with a spurious
    /// kRateLimited status instead of reaching the upstream.
    double rate_limit_prob = 0.0;
    /// Probability a frame is delayed by `delay_ms` before forwarding.
    double delay_prob = 0.0;
    int delay_ms = 0;
    /// Deterministic kill/revive schedule, counted in client Query
    /// frames seen across all connections: queries with 0-based arrival
    /// index in [blackout_after_queries, blackout_after_queries +
    /// blackout_queries) kill the connection instead of reaching the
    /// upstream, then the proxy recovers. Because a blacked-out client
    /// retry arrives as a fresh Query frame, each blacked-out logical
    /// query consumes max_attempts arrivals — the schedule is a query
    /// counter, not wall clock, so it is exactly reproducible. -1
    /// disables.
    int64_t blackout_after_queries = -1;
    int64_t blackout_queries = 0;
  };

  struct Options {
    std::string bind_address = "127.0.0.1";
    uint16_t port = 0;  // 0 = ephemeral
    /// Backstop so a proxied connection cannot park a pump thread forever.
    int io_timeout_ms = 30000;
  };

  struct Stats {
    int64_t connections = 0;
    int64_t frames_forwarded = 0;
    int64_t frames_dropped = 0;
    int64_t frames_truncated = 0;
    int64_t rate_limits_injected = 0;
    int64_t delays_injected = 0;
    /// Client queries killed by the blackout schedule.
    int64_t queries_blacked_out = 0;
  };

  static common::Result<std::unique_ptr<FaultInjectingProxy>> Start(
      const std::string& upstream_host, uint16_t upstream_port,
      const Policy& policy, const Options& options);
  static common::Result<std::unique_ptr<FaultInjectingProxy>> Start(
      const std::string& upstream_host, uint16_t upstream_port,
      const Policy& policy) {
    return Start(upstream_host, upstream_port, policy, Options());
  }

  ~FaultInjectingProxy();

  uint16_t port() const { return listener_.port(); }
  void Stop();
  Stats stats() const;

 private:
  /// One proxied client<->upstream pair with its two pump threads.
  struct Connection {
    net::Socket client;
    net::Socket upstream;
    /// Serializes writes to the client socket: the c2s pump may inject a
    /// rate-limit reply while the s2c pump forwards a response.
    std::mutex client_write_mu;
    std::atomic<int> live_pumps{0};
    std::jthread c2s;
    std::jthread s2c;
  };

  FaultInjectingProxy(std::string upstream_host, uint16_t upstream_port,
                      const Policy& policy, const Options& options)
      : upstream_host_(std::move(upstream_host)),
        upstream_port_(upstream_port),
        policy_(policy),
        options_(options) {}

  void AcceptLoop();
  /// Pumps frames src -> dst until a fault or error ends the connection.
  void Pump(Connection* conn, bool client_to_server, uint64_t rng_seed);
  void ReapFinished();
  void BumpStat(int64_t Stats::* field);

  std::string upstream_host_;
  uint16_t upstream_port_;
  Policy policy_;
  Options options_;
  net::ServerSocket listener_;
  std::atomic<bool> stopping_{false};
  /// Arrival index for the blackout schedule (client Query frames,
  /// counted across every connection).
  std::atomic<int64_t> queries_seen_{0};

  mutable std::mutex stats_mu_;
  Stats stats_;

  std::mutex conns_mu_;
  std::list<std::unique_ptr<Connection>> conns_;
  uint64_t next_conn_index_ = 0;

  std::jthread accept_thread_;  // last member: joins first
};

}  // namespace service
}  // namespace hdsky

#endif  // HDSKY_SERVICE_FAULT_PROXY_H_
