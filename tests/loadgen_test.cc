// End-to-end tests for the event-driven server and the epoll load
// driver: request pipelining on one connection, BUSY shedding and the
// retry barrier, slow-reader and write-stall shedding, idle-timeout
// eviction, per-session budgets, in-place execution of never-blocking
// backends on the loop thread, and concurrent sessions driven through
// RunLoad, twice against one server and through BUSY backoffs (the
// TSan CI job's LoadGen stress).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/paged_table.h"
#include "dataset/pack.h"
#include "dataset/synthetic.h"
#include "interface/hidden_database.h"
#include "interface/ranking.h"
#include "interface/top_k_interface.h"
#include "net/socket.h"
#include "net/wire.h"
#include "service/event_server.h"
#include "service/load_driver.h"
#include "service/remote_database.h"

namespace hdsky {
namespace service {
namespace {

using interface::Query;
using interface::QueryResult;
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

std::unique_ptr<TopKInterface> MakeBackend(const data::Table* t) {
  TopKOptions opts;
  opts.k = 5;
  return std::move(
             TopKInterface::Create(t, interface::MakeSumRanking(), opts))
      .value();
}

RemoteHiddenDatabase::Options FastClient(uint64_t session) {
  RemoteHiddenDatabase::Options o;
  o.connect_timeout_ms = 2000;
  o.io_timeout_ms = 5000;
  o.max_attempts = 6;
  o.initial_backoff_ms = 1;
  o.max_backoff_ms = 8;
  o.session_id = session;
  o.jitter_seed = 7;
  return o;
}

/// Connects a raw protocol client: handshake done, ready for kQuery.
net::Socket ConnectAndHello(uint16_t port, uint64_t session) {
  auto sock =
      std::move(net::Socket::Connect("127.0.0.1", port, 2000)).value();
  EXPECT_TRUE(sock.SetIoTimeout(5000).ok());
  std::string hello;
  net::EncodeHello(session, &hello);
  EXPECT_TRUE(net::WriteFrame(sock, net::FrameType::kHello, hello).ok());
  net::Frame frame;
  EXPECT_TRUE(net::ReadFrame(sock, &frame).ok());
  EXPECT_EQ(frame.type, net::FrameType::kDescriptor);
  return sock;
}

void SendQuery(net::Socket& sock, uint64_t seq, const Query& q) {
  std::string payload;
  net::EncodeQuery(seq, q, &payload);
  EXPECT_TRUE(net::WriteFrame(sock, net::FrameType::kQuery, payload).ok());
}

/// One buffer holding `queries` as consecutive kQuery frames with seqs
/// first_seq, first_seq + 1, ... — what a pipelining client puts on the
/// wire in a single write.
std::string PipelineBuffer(const std::vector<Query>& queries,
                           uint64_t first_seq) {
  std::string buf;
  std::string payload;
  for (size_t i = 0; i < queries.size(); ++i) {
    payload.clear();
    net::EncodeQuery(first_seq + i, queries[i], &payload);
    buf += net::EncodeFrameHeader(net::FrameType::kQuery,
                                  static_cast<uint32_t>(payload.size()));
    buf += payload;
  }
  return buf;
}

/// A backend that sleeps before delegating, to hold executor slots open
/// long enough for admission control to fire deterministically.
std::unique_ptr<interface::HiddenDatabase> MakeSlowBackend(
    TopKInterface* inner, int delay_ms) {
  return std::make_unique<interface::CallbackDatabase>(
      inner->schema(), inner->k(),
      [inner, delay_ms](const Query& q) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
        return inner->Execute(q);
      });
}

/// Delegates to an in-memory interface and reports `never_blocks` from
/// NeverBlocks(). Counts executions and notes which threads ran them, and
/// which thread last asked k(): the server asks only while answering a
/// Hello, on the connection's loop thread.
class ThreadRecordingBackend : public interface::HiddenDatabase {
 public:
  ThreadRecordingBackend(TopKInterface* inner, bool never_blocks)
      : inner_(inner), never_blocks_(never_blocks) {}

  using HiddenDatabase::Execute;
  common::Result<QueryResult> Execute(const Query& q) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++executions_;
      execute_threads_.insert(std::this_thread::get_id());
    }
    return inner_->Execute(q);
  }
  const data::Schema& schema() const override { return inner_->schema(); }
  int k() const override {
    std::lock_guard<std::mutex> lock(mu_);
    hello_thread_ = std::this_thread::get_id();
    return inner_->k();
  }
  bool NeverBlocks() const override { return never_blocks_; }

  int executions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return executions_;
  }
  std::set<std::thread::id> execute_threads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return execute_threads_;
  }
  std::thread::id hello_thread() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hello_thread_;
  }

 private:
  TopKInterface* inner_;
  const bool never_blocks_;
  mutable std::mutex mu_;
  int executions_ = 0;
  std::set<std::thread::id> execute_threads_;
  mutable std::thread::id hello_thread_;
};

/// Reads one frame that must be the kResult of `want_seq`; returns its
/// payload.
std::string ReadResultFrame(net::Socket& sock, const data::Schema& schema,
                            uint64_t want_seq) {
  net::Frame frame;
  EXPECT_TRUE(net::ReadFrame(sock, &frame).ok()) << want_seq;
  EXPECT_EQ(frame.type, net::FrameType::kResult) << want_seq;
  uint64_t seq = 0;
  QueryResult result;
  EXPECT_TRUE(net::DecodeResult(frame.payload, schema.num_attributes(),
                                &seq, &result)
                  .ok());
  EXPECT_EQ(seq, want_seq);
  return frame.payload;
}

// --- workload generator --------------------------------------------------

TEST(WorkloadTest, DeterministicForASeedDistinctAcrossSeeds) {
  const data::Table t = MakeTable(data::InterfaceType::kRQ);
  const auto a = GenerateWorkload(t.schema(), 32, 42);
  const auto b = GenerateWorkload(t.schema(), 32, 42);
  ASSERT_EQ(a.size(), 32u);
  ASSERT_EQ(b.size(), 32u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].Signature(), b[i].Signature()) << i;
  }
  const auto c = GenerateWorkload(t.schema(), 32, 43);
  int differing = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    differing += a[i].Signature() != c[i].Signature();
  }
  EXPECT_GT(differing, 0);
}

TEST(WorkloadTest, RespectsEveryInterfaceTaxonomy) {
  for (const auto iface :
       {data::InterfaceType::kSQ, data::InterfaceType::kRQ,
        data::InterfaceType::kPQ}) {
    const data::Table t = MakeTable(iface);
    for (const auto& q : GenerateWorkload(t.schema(), 64, 7)) {
      EXPECT_TRUE(interface::ValidateAgainstSchema(t.schema(), q).ok())
          << q.ToString(t.schema());
    }
  }
}

// --- pipelining ----------------------------------------------------------

TEST(EventServerTest, AnswersPipelinedQueriesInOrder) {
  const data::Table t = MakeTable(data::InterfaceType::kRQ);
  auto backend = MakeBackend(&t);
  auto server =
      std::move(EventDrivenServer::Start(backend.get(), {})).value();

  auto sock = ConnectAndHello(server->port(), 1);
  const auto queries = GenerateWorkload(t.schema(), 8, 42);
  const std::string buf = PipelineBuffer(queries, 1);
  ASSERT_TRUE(sock.SendAll(buf.data(), buf.size()).ok());

  // All 8 arrive as kResult, strictly in sequence order: the per-session
  // contract survives pipelining.
  for (uint64_t want = 1; want <= 8; ++want) {
    ReadResultFrame(sock, t.schema(), want);
  }
  server->Stop();
  EXPECT_EQ(server->stats().queries_served, 8);
  EXPECT_EQ(server->stats().protocol_errors, 0);
}

TEST(EventServerTest, OverDeepPipelineGetsBusyAndRetrySucceeds) {
  const data::Table t = MakeTable(data::InterfaceType::kRQ);
  auto backend = MakeBackend(&t);
  auto slow = MakeSlowBackend(backend.get(), 50);
  EventDrivenServer::Options opts;
  opts.max_pipeline_depth = 2;
  opts.serialize_backend = true;  // CallbackDatabase is a shared closure
  auto server =
      std::move(EventDrivenServer::Start(slow.get(), opts)).value();

  auto sock = ConnectAndHello(server->port(), 1);
  const auto queries = GenerateWorkload(t.schema(), 5, 42);
  const std::string buf = PipelineBuffer(queries, 1);
  ASSERT_TRUE(sock.SendAll(buf.data(), buf.size()).ok());

  // Seq 1 occupies the backend (50 ms), 2-3 fill the pipeline buffer,
  // 4-5 overflow: they must come back BUSY, the rest as results.
  std::set<uint64_t> results;
  std::set<uint64_t> busy;
  for (int i = 0; i < 5; ++i) {
    net::Frame frame;
    ASSERT_TRUE(net::ReadFrame(sock, &frame).ok()) << i;
    uint64_t seq = 0;
    if (frame.type == net::FrameType::kResult) {
      QueryResult result;
      ASSERT_TRUE(net::DecodeResult(frame.payload,
                                    t.schema().num_attributes(), &seq,
                                    &result)
                      .ok());
      results.insert(seq);
    } else {
      ASSERT_EQ(frame.type, net::FrameType::kStatus);
      uint16_t code = 0;
      std::string message;
      ASSERT_TRUE(
          net::DecodeStatusFrame(frame.payload, &seq, &code, &message)
              .ok());
      EXPECT_EQ(code, static_cast<uint16_t>(net::WireStatus::kRateLimited))
          << message;
      busy.insert(seq);
    }
  }
  EXPECT_EQ(results, (std::set<uint64_t>{1, 2, 3}));
  EXPECT_EQ(busy, (std::set<uint64_t>{4, 5}));

  // The BUSY barrier: retrying from the lowest rejected seq clears it and
  // both queries now succeed.
  for (uint64_t seq = 4; seq <= 5; ++seq) {
    SendQuery(sock, seq, queries[seq - 1]);
    net::Frame frame;
    ASSERT_TRUE(net::ReadFrame(sock, &frame).ok()) << seq;
    ASSERT_EQ(frame.type, net::FrameType::kResult) << seq;
  }
  server->Stop();
  EXPECT_EQ(server->stats().queries_served, 5);
  EXPECT_GE(server->stats().busy_rejections, 2);
}

// --- never-blocking backends: in place on the loop thread ---------------

TEST(EventServerTest, NeverBlockingBackendExecutesOnTheLoopThread) {
  const data::Table t = MakeTable(data::InterfaceType::kRQ);
  auto inner = MakeBackend(&t);
  const auto queries = GenerateWorkload(t.schema(), 4, 42);
  for (const bool never_blocks : {true, false}) {
    SCOPED_TRACE(never_blocks ? "never blocks" : "may block");
    ThreadRecordingBackend backend(inner.get(), never_blocks);
    EventDrivenServer::Options opts;
    opts.num_loops = 1;
    opts.num_workers = 2;
    auto server =
        std::move(EventDrivenServer::Start(&backend, opts)).value();
    auto sock = ConnectAndHello(server->port(), 1);
    const std::string buf = PipelineBuffer(queries, 1);
    ASSERT_TRUE(sock.SendAll(buf.data(), buf.size()).ok());
    for (uint64_t seq = 1; seq <= queries.size(); ++seq) {
      ReadResultFrame(sock, t.schema(), seq);
    }
    server->Stop();
    EXPECT_EQ(backend.executions(), 4);
    const std::set<std::thread::id> threads = backend.execute_threads();
    if (never_blocks) {
      // Every execution ran on the thread that answered the Hello.
      EXPECT_EQ(threads, std::set<std::thread::id>{backend.hello_thread()});
    } else {
      // The executor's workers ran them, never the loop thread.
      EXPECT_FALSE(threads.empty());
      EXPECT_EQ(threads.count(backend.hello_thread()), 0u);
    }
  }
}

TEST(EventServerTest, NeverBlockingPipelineAnswersInOrderAndReplaysRetry) {
  const data::Table t = MakeTable(data::InterfaceType::kRQ);
  auto inner = MakeBackend(&t);
  // 600 queries of 68 bytes: the server reads them 16 KiB per wake-up,
  // so the pipeline spans several reads and some frames straddle two.
  constexpr int kQueries = 600;
  const auto queries = GenerateWorkload(t.schema(), kQueries, 42);
  ThreadRecordingBackend backend(inner.get(), /*never_blocks=*/true);
  auto server = std::move(EventDrivenServer::Start(&backend, {})).value();
  auto sock = ConnectAndHello(server->port(), 1);
  const std::string buf = PipelineBuffer(queries, 1);
  ASSERT_TRUE(sock.SendAll(buf.data(), buf.size()).ok());
  std::string last;
  for (uint64_t seq = 1; seq <= queries.size(); ++seq) {
    last = ReadResultFrame(sock, t.schema(), seq);
  }
  // The client retries the last seq as if its reply had been lost: the
  // session replay cache answers it, byte for byte, and the backend does
  // not see the query again.
  SendQuery(sock, kQueries, queries.back());
  EXPECT_EQ(ReadResultFrame(sock, t.schema(), kQueries), last);
  server->Stop();
  EXPECT_EQ(backend.executions(), kQueries);
  const EventDrivenServer::Stats stats = server->stats();
  EXPECT_EQ(stats.backend_executions, kQueries);
  EXPECT_EQ(stats.queries_served, kQueries);
  EXPECT_EQ(stats.queries_replayed, 1);
  EXPECT_EQ(stats.protocol_errors, 0);
}

TEST(EventServerTest, TwoSessionsAskingOneQueryCauseTwoExecutions) {
  const data::Table t = MakeTable(data::InterfaceType::kRQ);
  auto inner = MakeBackend(&t);
  ThreadRecordingBackend backend(inner.get(), /*never_blocks=*/true);
  EventDrivenServer::Options opts;
  opts.num_loops = 1;
  auto server = std::move(EventDrivenServer::Start(&backend, opts)).value();

  auto first = ConnectAndHello(server->port(), 1);
  auto second = ConnectAndHello(server->port(), 2);
  Query q(t.schema().num_attributes());
  q.AddAtMost(0, 10);
  SendQuery(first, 1, q);
  SendQuery(second, 1, q);
  EXPECT_EQ(ReadResultFrame(first, t.schema(), 1),
            ReadResultFrame(second, t.schema(), 1));

  // No answer is shared between sessions: each one reaches the backend.
  server->Stop();
  EXPECT_EQ(backend.executions(), 2);
  const EventDrivenServer::Stats stats = server->stats();
  EXPECT_EQ(stats.backend_executions, 2);
  EXPECT_EQ(stats.queries_served, 2);
}

TEST(EventServerTest, OnlyInMemoryTopKInterfaceNeverBlocks) {
  const data::Table t = MakeTable(data::InterfaceType::kRQ);
  EXPECT_TRUE(MakeBackend(&t)->NeverBlocks());

  std::string dir = (std::filesystem::temp_directory_path() /
                     "hdsky_loadgen_paged.XXXXXX")
                        .string();
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  {
    const std::string path = dir + "/t.hdb";
    ASSERT_TRUE(dataset::PackTable(t, interface::MakeSumRanking(), path,
                                   data::BlockFileOptions())
                    .ok());
    auto paged = data::PagedTable::Open(path, data::PagedTableOptions());
    ASSERT_TRUE(paged.ok()) << paged.status();
    TopKOptions topk;
    topk.k = 5;
    auto iface = TopKInterface::CreatePaged(paged->get(), topk);
    ASSERT_TRUE(iface.ok()) << iface.status();
    // A paged answer may wait on a pread or a page fault.
    EXPECT_FALSE((*iface)->NeverBlocks());
  }
  std::filesystem::remove_all(dir);

  // So may an arbitrary callback; wrappers keep the default too.
  auto backend = MakeBackend(&t);
  auto slow = MakeSlowBackend(backend.get(), 0);
  EXPECT_FALSE(slow->NeverBlocks());
}

// --- overload and misbehaving clients ------------------------------------

TEST(EventServerTest, BackendSaturationShedsBusyNotQueues) {
  const data::Table t = MakeTable(data::InterfaceType::kRQ);
  auto backend = MakeBackend(&t);
  // The occupying query parks inside the backend until the test releases
  // it, so the single admission slot is provably held when the second
  // session's query arrives — no sleep-based timing to flake when the
  // suite runs alongside a parallel ctest load.
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  interface::CallbackDatabase gated(
      backend->schema(), backend->k(), [&](const Query& query) {
        started.fetch_add(1);
        while (!release.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return backend->Execute(query);
      });
  EventDrivenServer::Options opts;
  opts.max_pending_queries = 1;
  opts.num_workers = 2;
  opts.serialize_backend = true;
  auto server = std::move(EventDrivenServer::Start(&gated, opts)).value();

  Query q(t.schema().num_attributes());
  q.AddAtMost(0, 10);

  auto first = ConnectAndHello(server->port(), 1);
  auto second = ConnectAndHello(server->port(), 2);
  SendQuery(first, 1, q);
  for (int i = 0; i < 5000 && started.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(started.load(), 1);  // first query pinned in the backend

  SendQuery(second, 1, q);
  net::Frame frame;
  ASSERT_TRUE(net::ReadFrame(second, &frame).ok());
  ASSERT_EQ(frame.type, net::FrameType::kStatus);
  uint64_t seq = 0;
  uint16_t code = 0;
  std::string message;
  ASSERT_TRUE(
      net::DecodeStatusFrame(frame.payload, &seq, &code, &message).ok());
  EXPECT_EQ(code, static_cast<uint16_t>(net::WireStatus::kRateLimited));
  EXPECT_EQ(seq, 1u);

  // The occupying query finishes normally...
  release.store(true);
  ASSERT_TRUE(net::ReadFrame(first, &frame).ok());
  EXPECT_EQ(frame.type, net::FrameType::kResult);
  // ...and the shed client's retry of the SAME seq is then admitted.
  // The admission slot frees when the worker task returns, which can
  // lag the result frame by a beat, so a retry may still draw BUSY —
  // retry until admitted, as a real client would.
  for (int attempt = 0;; ++attempt) {
    SendQuery(second, 1, q);
    ASSERT_TRUE(net::ReadFrame(second, &frame).ok());
    if (frame.type == net::FrameType::kResult) break;
    ASSERT_EQ(frame.type, net::FrameType::kStatus);
    ASSERT_TRUE(
        net::DecodeStatusFrame(frame.payload, &seq, &code, &message).ok());
    ASSERT_EQ(code, static_cast<uint16_t>(net::WireStatus::kRateLimited));
    ASSERT_LT(attempt, 500);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  server->Stop();
  EXPECT_GE(server->stats().busy_rejections, 1);
  EXPECT_EQ(server->stats().queries_served, 2);
}

TEST(EventServerTest, SlowReaderIsShedNotBufferedWithoutBound) {
  // Wide results (k = 50) so the reply volume — roughly 10 MB across
  // 8000 queries — dwarfs what the kernel's socket buffers can absorb
  // (tcp_wmem caps out at a few MB): the server's own write backlog is
  // guaranteed to grow past read_pause_bytes.
  const data::Table t = MakeTable(data::InterfaceType::kRQ, 2000);
  TopKOptions topk;
  topk.k = 50;
  auto backend = std::move(TopKInterface::Create(
                               &t, interface::MakeSumRanking(), topk))
                     .value();
  EventDrivenServer::Options opts;
  opts.max_pipeline_depth = 16384;
  opts.max_pending_queries = 0;
  opts.write_buffer_limit = 256u << 10;
  opts.read_pause_bytes = 64u << 10;
  auto server =
      std::move(EventDrivenServer::Start(backend.get(), opts)).value();

  auto sock = ConnectAndHello(server->port(), 1);
  // Thousands of distinct queries whose replies we never read: the server
  // must shed us instead of buffering an unbounded pile, either when the
  // backlog crosses write_buffer_limit or, once reads are paused and we
  // take no reply byte, at the server's 10 s stall limit.
  const auto queries = GenerateWorkload(t.schema(), 8000, 42);
  const std::string buf = PipelineBuffer(queries, 1);
  sock.SendAll(buf.data(), buf.size());  // may fail once we are shed

  bool shed = false;
  for (int i = 0; i < 1500 && !shed; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    shed = server->stats().connections_shed >= 1;
  }
  EXPECT_TRUE(shed);
  server->Stop();
}

TEST(EventServerTest, IdleConnectionIsEvicted) {
  const data::Table t = MakeTable(data::InterfaceType::kRQ, 100);
  auto backend = MakeBackend(&t);
  EventDrivenServer::Options opts;
  opts.idle_timeout_ms = 100;
  auto server =
      std::move(EventDrivenServer::Start(backend.get(), opts)).value();

  auto sock = ConnectAndHello(server->port(), 1);
  // Say nothing: within a few ticks the server must close us.
  char byte = 0;
  const auto status = sock.RecvExact(&byte, 1);
  EXPECT_FALSE(status.ok()) << "expected eviction, got a byte";
  server->Stop();
  EXPECT_GE(server->stats().idle_closed, 1);
  EXPECT_GE(server->stats().connections_shed, 1);
}

// --- budgets and concurrent sessions -------------------------------------

TEST(EventServerTest, BudgetIsChargedPerSession) {
  const data::Table t = MakeTable(data::InterfaceType::kRQ);
  auto backend = MakeBackend(&t);
  EventDrivenServer::Options opts;
  opts.per_client_query_budget = 10;
  auto server =
      std::move(EventDrivenServer::Start(backend.get(), opts)).value();

  auto run_session = [&](uint64_t session_id) {
    auto remote =
        std::move(RemoteHiddenDatabase::Connect(
                      "127.0.0.1", server->port(), FastClient(session_id)))
            .value();
    EXPECT_EQ(remote->server_remaining_budget(), 10);
    for (int i = 0; i < 10; ++i) {
      Query q(t.schema().num_attributes());
      q.AddAtMost(0, 5 + i);
      ASSERT_TRUE(remote->Execute(q).ok()) << "session " << session_id
                                           << " query " << i;
    }
    Query over(t.schema().num_attributes());
    over.AddAtMost(0, 25);
    auto refused = remote->Execute(over);
    ASSERT_FALSE(refused.ok());
    EXPECT_TRUE(refused.status().IsResourceExhausted());
  };

  // Session 2 asks session 1's queries: it has its own budget, and its
  // answers come from the backend like session 1's did.
  run_session(1);
  run_session(2);

  server->Stop();
  const EventDrivenServer::Stats stats = server->stats();
  EXPECT_EQ(backend->stats().queries_issued, 20);
  EXPECT_EQ(stats.backend_executions, 20);
  EXPECT_EQ(stats.queries_served, 20);
  EXPECT_EQ(stats.budget_rejections, 2);
}

TEST(LoadGenTest, EverySessionsQueriesReachTheBackend) {
  const data::Table t = MakeTable(data::InterfaceType::kRQ);
  auto backend = MakeBackend(&t);
  auto server =
      std::move(EventDrivenServer::Start(backend.get(), {})).value();

  LoadOptions load;
  load.port = server->port();
  load.sessions = 8;
  load.queries_per_session = 16;
  load.pipeline_depth = 4;
  load.num_loops = 2;
  load.total_timeout_ms = 60000;
  const auto report = std::move(RunLoad(load)).value();

  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.sessions_completed, 8);
  EXPECT_EQ(report.sessions_failed, 0);
  EXPECT_EQ(report.queries_completed, 8 * 16);
  ASSERT_TRUE(report.server_stats_valid);
  // 8 sessions ran the same 16 queries, and each one reached the backend.
  EXPECT_EQ(report.server.queries_served, 8 * 16);
  EXPECT_EQ(report.server.backend_executions, 8 * 16);
  EXPECT_EQ(backend->stats().queries_issued, 8 * 16);
  EXPECT_GT(report.latency_p99_us, 0);
  server->Stop();
}

TEST(LoadGenTest, SecondRunAgainstOneServerUsesFreshSessions) {
  // The server keeps each session's sequence state across connections,
  // so a second run that reused the first run's session ids would see
  // every query refused as out of order.
  const data::Table t = MakeTable(data::InterfaceType::kRQ);
  auto backend = MakeBackend(&t);
  auto server =
      std::move(EventDrivenServer::Start(backend.get(), {})).value();

  LoadOptions load;
  load.port = server->port();
  load.sessions = 4;
  load.queries_per_session = 8;
  load.pipeline_depth = 4;
  load.num_loops = 1;
  load.total_timeout_ms = 60000;
  for (int run = 1; run <= 2; ++run) {
    SCOPED_TRACE(run);
    const auto report = std::move(RunLoad(load)).value();
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.sessions_failed, 0);
    EXPECT_EQ(report.queries_completed, 4 * 8);
    ASSERT_TRUE(report.server_stats_valid);
    EXPECT_EQ(report.server.queries_served, run * 4 * 8);
    EXPECT_EQ(report.server.protocol_errors, 0);
  }
  server->Stop();
}

TEST(LoadGenTest, BusySessionsResumeAfterTheirBackoff) {
  // One admission slot and a slow backend: pipelined sessions are shed
  // with BUSY, back off, and must each resume and finish. A connection
  // resumes only from the driver's tick, so a resume that is never
  // scheduled shows up as a run that times out.
  const data::Table t = MakeTable(data::InterfaceType::kRQ);
  auto backend = MakeBackend(&t);
  auto slow = MakeSlowBackend(backend.get(), 2);
  EventDrivenServer::Options opts;
  opts.max_pending_queries = 1;
  opts.num_workers = 1;
  opts.serialize_backend = true;
  auto server = std::move(EventDrivenServer::Start(slow.get(), opts)).value();

  LoadOptions load;
  load.port = server->port();
  load.sessions = 4;
  load.queries_per_session = 6;
  load.pipeline_depth = 3;
  load.num_loops = 1;
  load.busy_backoff_ms = 5;
  load.total_timeout_ms = 60000;
  const auto report = std::move(RunLoad(load)).value();

  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.sessions_failed, 0);
  EXPECT_EQ(report.queries_completed, 4 * 6);
  EXPECT_GT(report.busy_retries, 0);
  server->Stop();
}

TEST(LoadGenTest, RunLoadRejectsInvalidOptions) {
  LoadOptions load;
  load.port = 0;  // nowhere to connect
  EXPECT_FALSE(RunLoad(load).ok());
  load.port = 1;
  load.sessions = 0;
  EXPECT_FALSE(RunLoad(load).ok());
  load.sessions = 4;
  load.pipeline_depth = 0;
  EXPECT_FALSE(RunLoad(load).ok());
}

}  // namespace
}  // namespace service
}  // namespace hdsky
