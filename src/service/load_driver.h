// LoadDriver: an epoll-based load-generation client for the hdsky wire
// protocol, built on the same net::EventLoop substrate as the server it
// exercises. It opens many concurrent sessions (one connection each),
// pipelines queries on every connection, measures per-query latency, and
// finally asks the server for its ServiceStats (kStatsRequest) so callers
// can report how many queries it served and executed.
//
// Workload model: every session runs the SAME deterministic query
// sequence, derived from the served schema's interface taxonomy (SQ
// attributes get upper bounds, RQ attributes two-ended ranges, PQ
// attributes point predicates — the Section 2.2 forms): many clients
// discovering the same hidden database. Each run draws fresh session
// ids, so runs against one long-lived server never collide.
//
// Threading: `num_loops` client event loops each own sessions/num_loops
// connections; per-loop state (latency samples included) is touched only
// by its loop thread, so the hot path takes no locks. RunLoad blocks the
// calling thread until the run completes, times out, or fails.

#ifndef HDSKY_SERVICE_LOAD_DRIVER_H_
#define HDSKY_SERVICE_LOAD_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/schema.h"
#include "interface/query.h"
#include "net/wire.h"

namespace hdsky {
namespace service {

struct LoadOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Concurrent sessions; each opens one connection and keeps it open
  /// until the whole run finishes (sustained concurrency, not churn).
  int sessions = 100;
  /// Queries per session; the same sequence in every session.
  int queries_per_session = 32;
  /// Max unanswered queries pipelined on one connection.
  int pipeline_depth = 8;
  /// Client event loops. 0 = min(4, hardware threads).
  int num_loops = 0;
  /// Whole-run deadline; the run fails (partial report) past it.
  int total_timeout_ms = 120000;
  /// Seed of the deterministic workload generator.
  uint64_t workload_seed = 42;
  /// Fetch the server's ServiceStats after the workload completes.
  bool fetch_server_stats = true;
};

struct LoadReport {
  /// Sessions whose full workload was answered.
  int sessions_completed = 0;
  /// Sessions that failed (connect error, refused connection, any error
  /// status, reset).
  int sessions_failed = 0;
  /// Successful query answers received (across all sessions).
  int64_t queries_completed = 0;
  double elapsed_ms = 0;
  /// Successful answers per second of wall clock.
  double qps = 0;
  double latency_p50_us = 0;
  double latency_p99_us = 0;
  double latency_mean_us = 0;
  /// True when the run finished inside the deadline with zero failures.
  bool complete = false;
  /// Server-side counters (valid iff server_stats_valid).
  bool server_stats_valid = false;
  net::ServiceStats server;
};

/// The deterministic shared workload: `count` queries over `schema`,
/// respecting each attribute's interface type. Exposed for tests (the
/// driver and the expectations must agree on the query set).
std::vector<interface::Query> GenerateWorkload(const data::Schema& schema,
                                               int count, uint64_t seed);

/// Runs the load described by `options` against a listening server.
/// Returns a report even on timeout (complete = false); returns an error
/// Status only for invalid options or setup failures (no event loop,
/// fd limits too low to even start).
common::Result<LoadReport> RunLoad(const LoadOptions& options);

}  // namespace service
}  // namespace hdsky

#endif  // HDSKY_SERVICE_LOAD_DRIVER_H_
