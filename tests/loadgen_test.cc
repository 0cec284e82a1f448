// End-to-end tests for the event-driven server and the epoll load
// driver: request pipelining on one connection, in-place execution of
// every backend (in-memory, paged, callback) on the loop thread, the
// write-buffer cap and write-stall shedding of slow readers,
// idle-timeout eviction, per-session budgets, and concurrent sessions
// driven through RunLoad, twice against one server (the TSan CI job's
// LoadGen stress).

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
#include "dataset/blue_nile.h"
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

/// Delegates to another backend. Counts executions and notes which
/// threads ran them, and which thread last asked k(): the server asks
/// only while answering a Hello, on the connection's loop thread.
class ThreadRecordingBackend : public interface::HiddenDatabase {
 public:
  explicit ThreadRecordingBackend(interface::HiddenDatabase* inner)
      : inner_(inner) {}

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
  interface::HiddenDatabase* inner_;
  mutable std::mutex mu_;
  int executions_ = 0;
  std::set<std::thread::id> execute_threads_;
  mutable std::thread::id hello_thread_;
};

/// `t` packed into a v3 block file and served by a paged TopKInterface
/// over a pread buffer pool of one page, so answers pin, miss, pread and
/// decode pages. The temporary file is removed on destruction.
class PagedBackend {
 public:
  explicit PagedBackend(const data::Table& t) {
    dir_ = (std::filesystem::temp_directory_path() /
            "hdsky_loadgen_paged.XXXXXX")
               .string();
    EXPECT_NE(::mkdtemp(dir_.data()), nullptr);
    const std::string path = dir_ + "/t.hdb";
    EXPECT_TRUE(dataset::PackTable(t, interface::MakeSumRanking(), path,
                                   data::BlockFileOptions())
                    .ok());
    data::PagedTableOptions popts;
    popts.read_path = data::ReadPathKind::kPread;
    popts.buffer_pool_bytes = 4096;
    paged_ = std::move(data::PagedTable::Open(path, popts)).value();
    TopKOptions topk;
    topk.k = 5;
    iface_ = std::move(TopKInterface::CreatePaged(paged_.get(), topk)).value();
  }
  ~PagedBackend() {
    iface_.reset();
    paged_.reset();
    std::filesystem::remove_all(dir_);
  }

  TopKInterface* iface() const { return iface_.get(); }
  const data::PagedTable& paged() const { return *paged_; }

 private:
  std::string dir_;
  std::unique_ptr<data::PagedTable> paged_;
  std::unique_ptr<TopKInterface> iface_;
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

// --- every backend: in place on the loop thread --------------------------

TEST(EventServerTest, NeverBlockingBackendExecutesOnTheLoopThread) {
  // Every backend is answered in place: a paged interface that pins and
  // preads pages, and a callback standing in for a real site, run every
  // query on the loop thread that answered the Hello.
  const data::Table t = MakeTable(data::InterfaceType::kRQ);
  PagedBackend paged(t);
  auto in_memory = MakeBackend(&t);
  std::atomic<int> callback_runs{0};
  interface::CallbackDatabase callback(
      t.schema(), 5, [&](const Query& q) {
        callback_runs.fetch_add(1);
        return in_memory->Execute(q);
      });
  const auto queries = GenerateWorkload(t.schema(), 4, 42);
  const std::pair<const char*, interface::HiddenDatabase*> backends[] = {
      {"paged", paged.iface()}, {"callback", &callback}};
  for (const auto& [name, inner] : backends) {
    SCOPED_TRACE(name);
    ThreadRecordingBackend backend(inner);
    EventDrivenServer::Options opts;
    opts.num_loops = 2;
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
    EXPECT_EQ(backend.execute_threads(),
              std::set<std::thread::id>{backend.hello_thread()});
  }
  EXPECT_EQ(callback_runs.load(), 4);
  EXPECT_GT(paged.paged().pool_stats().misses, 0u);
}

TEST(EventServerTest, NeverBlockingPipelineAnswersInOrderAndReplaysRetry) {
  // A paged backend under a one-page pool: every answer may miss.
  const data::Table t = MakeTable(data::InterfaceType::kRQ);
  PagedBackend paged(t);
  // 600 queries of 68 bytes: the server reads them 16 KiB per wake-up,
  // so the pipeline spans several reads and some frames straddle two.
  constexpr int kQueries = 600;
  const auto queries = GenerateWorkload(t.schema(), kQueries, 42);
  ThreadRecordingBackend backend(paged.iface());
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
  EXPECT_EQ(paged.iface()->stats().queries_issued, kQueries);
  const EventDrivenServer::Stats stats = server->stats();
  EXPECT_EQ(stats.backend_executions, kQueries);
  EXPECT_EQ(stats.queries_served, kQueries);
  EXPECT_EQ(stats.queries_replayed, 1);
  EXPECT_EQ(stats.protocol_errors, 0);
}

TEST(EventServerTest, TwoSessionsAskingOneQueryCauseTwoExecutions) {
  const data::Table t = MakeTable(data::InterfaceType::kRQ);
  auto inner = MakeBackend(&t);
  ThreadRecordingBackend backend(inner.get());
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

// --- misbehaving clients --------------------------------------------------

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

TEST(EventServerTest, FloodOfWideRepliesIsShedAtTheWriteBufferLimit) {
  // Blue Nile at k = 500: every broad answer is a 28 KB reply, and one
  // 16 KiB read holds hundreds of query frames, all answered before the
  // read pause can take effect. Once the kernel's socket buffers are
  // full, a single wake-up drives the backlog past write_buffer_limit,
  // and the server sheds the connection there and then, long before the
  // 10 s stall limit could.
  dataset::BlueNileOptions gen;
  gen.num_tuples = 20000;
  const data::Table t = std::move(dataset::GenerateBlueNile(gen)).value();
  TopKOptions topk;
  topk.k = 500;
  auto backend = std::move(TopKInterface::Create(
                               &t, interface::MakeSumRanking(), topk))
                     .value();
  EventDrivenServer::Options opts;
  opts.write_buffer_limit = 1u << 20;
  opts.read_pause_bytes = 256u << 10;
  auto server =
      std::move(EventDrivenServer::Start(backend.get(), opts)).value();

  auto sock = ConnectAndHello(server->port(), 1);
  // 4000 unconstrained queries would be 112 MB of replies; we read none.
  const std::vector<Query> queries(4000, Query(t.schema().num_attributes()));
  const std::string buf = PipelineBuffer(queries, 1);
  const auto start = std::chrono::steady_clock::now();
  sock.SendAll(buf.data(), buf.size());  // may fail once we are shed

  bool shed = false;
  while (!shed &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(5)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    shed = server->stats().connections_shed >= 1;
  }
  EXPECT_TRUE(shed) << "not shed within 5 s";
  server->Stop();
  EXPECT_EQ(server->stats().idle_closed, 0);
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
