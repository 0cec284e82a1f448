// End-to-end tests for the network service: loopback equivalence of
// discovery over RemoteHiddenDatabase vs in-process (identical skyline
// AND identical external-query accounting), honest status propagation,
// per-client budgets, connection limits, cache stacking, and robustness
// under the deterministic fault-injection proxy — the "never hangs,
// never crashes, never double-counts" contract.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rq_db_sky.h"
#include "core/sq_db_sky.h"
#include "dataset/synthetic.h"
#include "interface/caching_database.h"
#include "interface/ranking.h"
#include "interface/top_k_interface.h"
#include "net/socket.h"
#include "net/wire.h"
#include "service/fault_proxy.h"
#include "service/event_server.h"
#include "service/remote_database.h"

namespace hdsky {
namespace service {
namespace {

using interface::Query;
using interface::TopKInterface;
using interface::TopKOptions;

data::Table MakeTable(data::InterfaceType iface, int64_t n = 400) {
  dataset::SyntheticOptions gen;
  gen.num_tuples = n;
  gen.num_attributes = 3;
  gen.domain_size = 30;
  gen.iface = iface;
  gen.seed = 1234;
  return std::move(dataset::GenerateSynthetic(gen)).value();
}

/// A larger, higher-cardinality table for the probabilistic fault tests:
/// RQ-DB-SKY issues ~110 queries here (vs ~4 on MakeTable()), so per-frame
/// fault probabilities of a few percent fire with certainty in practice.
data::Table MakeBusyTable() {
  dataset::SyntheticOptions gen;
  gen.num_tuples = 1000;
  gen.num_attributes = 4;
  gen.domain_size = 1000;
  gen.iface = data::InterfaceType::kRQ;
  gen.seed = 1234;
  return std::move(dataset::GenerateSynthetic(gen)).value();
}

std::unique_ptr<TopKInterface> MakeBackend(const data::Table* t,
                                           int64_t budget = 0) {
  TopKOptions opts;
  opts.k = 5;
  opts.query_budget = budget;
  return std::move(
             TopKInterface::Create(t, interface::MakeSumRanking(), opts))
      .value();
}

/// Fast deterministic client options for tests.
RemoteHiddenDatabase::Options FastClient(uint64_t session = 99) {
  RemoteHiddenDatabase::Options o;
  o.connect_timeout_ms = 2000;
  o.io_timeout_ms = 2000;
  o.max_attempts = 6;
  o.initial_backoff_ms = 1;
  o.max_backoff_ms = 8;
  o.session_id = session;
  o.jitter_seed = 7;
  return o;
}

/// Runs `algo` twice — in-process and over a loopback server — and
/// demands identical skylines AND identical backend query accounting.
template <typename Algo>
void ExpectLoopbackEquivalence(data::InterfaceType iface_type,
                               Algo&& algo) {
  const data::Table t = MakeTable(iface_type);

  auto local_backend = MakeBackend(&t);
  auto local = algo(static_cast<interface::HiddenDatabase*>(
      local_backend.get()));
  ASSERT_TRUE(local.ok()) << local.status().ToString();

  auto served_backend = MakeBackend(&t);
  auto server =
      std::move(EventDrivenServer::Start(served_backend.get(), {})).value();
  auto remote = std::move(RemoteHiddenDatabase::Connect(
                              "127.0.0.1", server->port(), FastClient()))
                    .value();
  EXPECT_EQ(remote->schema().ToString(), t.schema().ToString());
  EXPECT_EQ(remote->k(), 5);

  auto over_wire = algo(
      static_cast<interface::HiddenDatabase*>(remote.get()));
  ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();

  EXPECT_EQ(over_wire->skyline_ids, local->skyline_ids);
  EXPECT_EQ(over_wire->query_cost, local->query_cost);
  EXPECT_EQ(over_wire->complete, local->complete);
  // The remote backend saw exactly what the local one did: the network
  // layer added zero and lost zero queries.
  EXPECT_EQ(served_backend->stats().queries_issued,
            local_backend->stats().queries_issued);
  EXPECT_EQ(served_backend->stats().tuples_returned,
            local_backend->stats().tuples_returned);
  EXPECT_EQ(remote->stats().remote_queries, local->query_cost);
  EXPECT_EQ(remote->stats().retries, 0);

  server->Stop();
  const EventDrivenServer::Stats stats = server->stats();
  EXPECT_EQ(stats.queries_served, local->query_cost);
  EXPECT_EQ(stats.queries_replayed, 0);
  EXPECT_EQ(stats.protocol_errors, 0);
}

TEST(ServiceLoopbackTest, SqDbSkyEquivalence) {
  ExpectLoopbackEquivalence(data::InterfaceType::kSQ, [](auto* db) {
    return core::SqDbSky(db);
  });
}

TEST(ServiceLoopbackTest, RqDbSkyEquivalence) {
  ExpectLoopbackEquivalence(data::InterfaceType::kRQ, [](auto* db) {
    return core::RqDbSky(db);
  });
}

TEST(ServiceLoopbackTest, BackendBudgetSurfacesAsAnytimeResult) {
  // A budget on the *backend* must reach the remote algorithm as the
  // same ResourceExhausted anytime signal it sees in-process.
  const data::Table t = MakeTable(data::InterfaceType::kRQ);

  auto ref_backend = MakeBackend(&t);
  auto ref = core::RqDbSky(ref_backend.get());
  ASSERT_TRUE(ref.ok());
  const int64_t half = ref->query_cost / 2;
  ASSERT_GT(half, 0);

  auto local_backend = MakeBackend(&t, half);
  auto local = core::RqDbSky(local_backend.get());
  ASSERT_TRUE(local.ok());
  EXPECT_FALSE(local->complete);

  auto served_backend = MakeBackend(&t, half);
  auto server =
      std::move(EventDrivenServer::Start(served_backend.get(), {})).value();
  auto remote = std::move(RemoteHiddenDatabase::Connect(
                              "127.0.0.1", server->port(), FastClient()))
                    .value();
  auto over_wire = core::RqDbSky(remote.get());
  ASSERT_TRUE(over_wire.ok());
  EXPECT_FALSE(over_wire->complete);
  EXPECT_EQ(over_wire->skyline_ids, local->skyline_ids);
  EXPECT_EQ(over_wire->query_cost, local->query_cost);
}

TEST(ServiceLoopbackTest, PerClientBudgetIsEnforcedAndReported) {
  const data::Table t = MakeTable(data::InterfaceType::kRQ);
  auto backend = MakeBackend(&t);
  EventDrivenServer::Options opts;
  opts.per_client_query_budget = 3;
  auto server =
      std::move(EventDrivenServer::Start(backend.get(), opts)).value();

  auto remote = std::move(RemoteHiddenDatabase::Connect(
                              "127.0.0.1", server->port(), FastClient()))
                    .value();
  EXPECT_EQ(remote->server_remaining_budget(), 3);

  for (int i = 0; i < 3; ++i) {
    Query q(t.schema().num_attributes());
    q.AddAtMost(0, 5 + i);
    ASSERT_TRUE(remote->Execute(q).ok()) << i;
  }
  Query q(t.schema().num_attributes());
  q.AddAtMost(0, 20);
  auto refused = remote->Execute(q);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsResourceExhausted());
  EXPECT_EQ(backend->stats().queries_issued, 3);

  // A fresh session id gets a fresh budget; the exhausted session stays
  // exhausted across reconnects.
  auto fresh = std::move(RemoteHiddenDatabase::Connect(
                             "127.0.0.1", server->port(), FastClient(1001)))
                   .value();
  EXPECT_EQ(fresh->server_remaining_budget(), 3);
  auto resumed = std::move(RemoteHiddenDatabase::Connect(
                               "127.0.0.1", server->port(), FastClient()))
                     .value();
  EXPECT_EQ(resumed->server_remaining_budget(), 0);
  EXPECT_EQ(server->stats().budget_rejections, 1);
}

TEST(ServiceLoopbackTest, ConnectionLimitThrottlesExtraClients) {
  const data::Table t = MakeTable(data::InterfaceType::kRQ, 100);
  auto backend = MakeBackend(&t);
  EventDrivenServer::Options opts;
  opts.max_connections = 1;
  auto server =
      std::move(EventDrivenServer::Start(backend.get(), opts)).value();

  auto first = std::move(RemoteHiddenDatabase::Connect(
                             "127.0.0.1", server->port(), FastClient(1)))
                   .value();
  // The slot is held; a second client is bounced with a transient
  // throttle, which Connect reports as retryable Unavailable.
  RemoteHiddenDatabase::Options second_opts = FastClient(2);
  auto second = RemoteHiddenDatabase::Connect("127.0.0.1", server->port(),
                                              second_opts);
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsUnavailable());
  EXPECT_NE(second.status().ToString().find("throttled"),
            std::string::npos)
      << second.status().ToString();
  EXPECT_GE(server->stats().connections_rejected, 1);

  // Releasing the first client frees the slot.
  first.reset();
  bool reconnected = false;
  for (int i = 0; i < 50 && !reconnected; ++i) {
    reconnected = RemoteHiddenDatabase::Connect("127.0.0.1",
                                                server->port(),
                                                second_opts)
                      .ok();
  }
  EXPECT_TRUE(reconnected);
}

TEST(ServiceLoopbackTest, CacheStackShortCircuitsTheNetwork) {
  const data::Table t = MakeTable(data::InterfaceType::kRQ, 100);
  auto backend = MakeBackend(&t);
  auto server =
      std::move(EventDrivenServer::Start(backend.get(), {})).value();
  auto remote = std::move(RemoteHiddenDatabase::Connect(
                              "127.0.0.1", server->port(), FastClient()))
                    .value();
  interface::CachingDatabase cached(remote.get());

  Query q(t.schema().num_attributes());
  q.AddAtMost(0, 10);
  auto first = cached.Execute(q);
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 5; ++i) {
    auto again = cached.Execute(q);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->ids, first->ids);
  }
  EXPECT_EQ(cached.hits(), 5);
  EXPECT_EQ(cached.misses(), 1);
  // Only the miss crossed the wire.
  EXPECT_EQ(remote->stats().remote_queries, 1);
  EXPECT_EQ(backend->stats().queries_issued, 1);
}

TEST(ServiceLoopbackTest, ServerSurvivesGarbageAndKeepsServing) {
  const data::Table t = MakeTable(data::InterfaceType::kRQ, 100);
  auto backend = MakeBackend(&t);
  // One event loop: connections are served in accept order, so the
  // garbage connection is parsed (and counted) before the well-behaved
  // client below is answered. With several loops the two connections
  // race and Stop() may land before the garbage is read.
  EventDrivenServer::Options opts;
  opts.num_loops = 1;
  auto server =
      std::move(EventDrivenServer::Start(backend.get(), opts)).value();

  {
    auto raw = net::Socket::Connect("127.0.0.1", server->port(), 2000);
    ASSERT_TRUE(raw.ok());
    const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_TRUE(raw->SendAll(garbage, sizeof(garbage) - 1).ok());
  }  // closed; the handler sees a malformed header and drops us

  // A well-behaved client still gets full service afterwards.
  auto remote = std::move(RemoteHiddenDatabase::Connect(
                              "127.0.0.1", server->port(), FastClient()))
                    .value();
  Query q(t.schema().num_attributes());
  q.AddAtMost(0, 10);
  EXPECT_TRUE(remote->Execute(q).ok());
  server->Stop();
  EXPECT_GE(server->stats().protocol_errors, 1);
}

// --- fault injection -----------------------------------------------------

struct FaultRunResult {
  core::DiscoveryResult discovery;
  RemoteHiddenDatabase::Stats client_stats;
  FaultInjectingProxy::Stats proxy_stats;
  EventDrivenServer::Stats server_stats;
  interface::AccessStats backend_stats;
};

/// Runs RQ-DB-SKY through proxy(policy) -> server -> backend and returns
/// every layer's accounting. Asserts the run *completed correctly*.
FaultRunResult RunRqThroughFaults(const FaultInjectingProxy::Policy& policy,
                                  const data::Table& t) {
  auto backend = MakeBackend(&t);
  auto server =
      std::move(EventDrivenServer::Start(backend.get(), {})).value();
  auto proxy = std::move(FaultInjectingProxy::Start(
                             "127.0.0.1", server->port(), policy))
                   .value();
  auto remote = std::move(RemoteHiddenDatabase::Connect(
                              "127.0.0.1", proxy->port(), FastClient()))
                    .value();
  auto result = core::RqDbSky(remote.get());
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  FaultRunResult out;
  out.discovery = std::move(result).value();
  out.client_stats = remote->stats();
  proxy->Stop();
  server->Stop();
  out.proxy_stats = proxy->stats();
  out.server_stats = server->stats();
  out.backend_stats = backend->stats();
  return out;
}

TEST(FaultInjectionTest, SurvivesDropsAndTruncationsWithExactAccounting) {
  const data::Table t = MakeBusyTable();
  auto clean_backend = MakeBackend(&t);
  auto clean = core::RqDbSky(clean_backend.get());
  ASSERT_TRUE(clean.ok());

  FaultInjectingProxy::Policy policy;
  policy.seed = 11;
  policy.drop_prob = 0.02;
  policy.truncate_prob = 0.02;
  const FaultRunResult run = RunRqThroughFaults(policy, t);

  EXPECT_EQ(run.discovery.skyline_ids, clean->skyline_ids);
  EXPECT_TRUE(run.discovery.complete);
  // Faults actually fired (deterministic seed over thousands of frames)…
  EXPECT_GT(run.proxy_stats.frames_dropped +
                run.proxy_stats.frames_truncated,
            0);
  EXPECT_GT(run.client_stats.retries, 0);
  // Every retry slept a jittered backoff and every frame was metered.
  EXPECT_GT(run.client_stats.backoff_ms, 0);
  EXPECT_GT(run.client_stats.bytes_sent, 0);
  EXPECT_GT(run.client_stats.bytes_received, 0);
  // …yet the backend executed each query exactly once: retried sequences
  // were replayed from the server's session cache, never re-executed.
  EXPECT_EQ(run.backend_stats.queries_issued,
            clean_backend->stats().queries_issued);
  EXPECT_EQ(run.discovery.query_cost, clean->query_cost);
  EXPECT_EQ(run.server_stats.queries_served, clean->query_cost);
}

TEST(FaultInjectionTest, AbsorbsSpuriousRateLimitsWithBackoff) {
  const data::Table t = MakeBusyTable();
  auto clean_backend = MakeBackend(&t);
  auto clean = core::RqDbSky(clean_backend.get());
  ASSERT_TRUE(clean.ok());

  FaultInjectingProxy::Policy policy;
  policy.seed = 5;
  policy.rate_limit_prob = 0.05;
  const FaultRunResult run = RunRqThroughFaults(policy, t);

  EXPECT_EQ(run.discovery.skyline_ids, clean->skyline_ids);
  EXPECT_GT(run.proxy_stats.rate_limits_injected, 0);
  EXPECT_EQ(run.client_stats.rate_limited,
            run.proxy_stats.rate_limits_injected);
  EXPECT_EQ(run.backend_stats.queries_issued,
            clean_backend->stats().queries_issued);
  EXPECT_EQ(run.discovery.query_cost, clean->query_cost);
}

TEST(FaultInjectionTest, SurvivesDelaysWithinTimeout) {
  const data::Table t = MakeTable(data::InterfaceType::kRQ, 60);
  FaultInjectingProxy::Policy policy;
  policy.seed = 3;
  policy.delay_prob = 0.05;
  policy.delay_ms = 20;  // well under the client's 2 s I/O timeout
  const FaultRunResult run = RunRqThroughFaults(policy, t);
  EXPECT_TRUE(run.discovery.complete);
  EXPECT_GT(run.proxy_stats.delays_injected, 0);
}

TEST(FaultInjectionTest, TotalBlackoutFailsFastAndDescriptively) {
  // Every frame dropped: the client must give up with a descriptive
  // error — not hang, not crash.
  const data::Table t = MakeTable(data::InterfaceType::kRQ, 60);
  auto backend = MakeBackend(&t);
  auto server =
      std::move(EventDrivenServer::Start(backend.get(), {})).value();
  FaultInjectingProxy::Policy policy;
  policy.seed = 2;
  policy.drop_prob = 1.0;
  auto proxy = std::move(FaultInjectingProxy::Start(
                             "127.0.0.1", server->port(), policy))
                   .value();
  auto remote = RemoteHiddenDatabase::Connect("127.0.0.1", proxy->port(),
                                              FastClient());
  ASSERT_FALSE(remote.ok());
  EXPECT_TRUE(remote.status().IsIOError());
  EXPECT_EQ(backend->stats().queries_issued, 0);
}

TEST(FaultInjectionTest, PermanentRateLimitGivesUpDescriptively) {
  // The handshake passes (Hello is not a Query) but every query is
  // bounced: retries must exhaust and report what happened.
  const data::Table t = MakeTable(data::InterfaceType::kRQ, 60);
  auto backend = MakeBackend(&t);
  auto server =
      std::move(EventDrivenServer::Start(backend.get(), {})).value();
  FaultInjectingProxy::Policy policy;
  policy.seed = 2;
  policy.rate_limit_prob = 1.0;
  auto proxy = std::move(FaultInjectingProxy::Start(
                             "127.0.0.1", server->port(), policy))
                   .value();
  RemoteHiddenDatabase::Options opts = FastClient();
  opts.max_attempts = 3;
  auto remote = std::move(RemoteHiddenDatabase::Connect(
                              "127.0.0.1", proxy->port(), opts))
                    .value();
  Query q(t.schema().num_attributes());
  q.AddAtMost(0, 10);
  auto result = remote->Execute(q);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable());
  EXPECT_NE(result.status().ToString().find("3 attempts"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(remote->stats().rate_limited, 3);
  EXPECT_EQ(backend->stats().queries_issued, 0);
}

TEST(FaultInjectionTest, RejectsInvalidProbabilities) {
  FaultInjectingProxy::Policy policy;
  policy.drop_prob = 1.5;
  auto proxy = FaultInjectingProxy::Start("127.0.0.1", 1, policy);
  EXPECT_FALSE(proxy.ok());
  EXPECT_TRUE(proxy.status().IsInvalidArgument());
}

}  // namespace
}  // namespace service
}  // namespace hdsky
