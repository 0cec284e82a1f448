// Durable remote sessions under a hostile network: a journaled discovery
// run against a remote server is interrupted mid-flight (with the fault
// proxy dropping and truncating frames the whole time), then resumed with
// the same journal directory and session id. The resumed run must finish
// with the clean in-process skyline, and the server's accounting must
// agree with the client's journal exactly: every distinct query charged
// once, however many crashes, retries, and replays it took.

#include <filesystem>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/rq_db_sky.h"
#include "dataset/synthetic.h"
#include "interface/ranking.h"
#include "interface/top_k_interface.h"
#include "recovery/journaling_database.h"
#include "service/event_server.h"
#include "service/fault_proxy.h"
#include "service/remote_database.h"

namespace hdsky {
namespace recovery {
namespace {

using interface::TopKInterface;
using interface::TopKOptions;
using service::EventDrivenServer;
using service::FaultInjectingProxy;
using service::RemoteHiddenDatabase;

/// High-cardinality RQ table: RQ-DB-SKY issues ~100 queries here, so the
/// per-frame fault probabilities fire with certainty in practice and the
/// interrupt lands well before completion.
data::Table MakeBusyTable() {
  dataset::SyntheticOptions gen;
  gen.num_tuples = 1000;
  gen.num_attributes = 4;
  gen.domain_size = 1000;
  gen.iface = data::InterfaceType::kRQ;
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

/// Fast deterministic client options; the fixed session id is what a
/// durable session persists in <journal>/SESSION.
RemoteHiddenDatabase::Options FastClient(uint64_t session) {
  RemoteHiddenDatabase::Options o;
  o.connect_timeout_ms = 2000;
  o.io_timeout_ms = 2000;
  o.max_attempts = 8;
  o.initial_backoff_ms = 1;
  o.max_backoff_ms = 8;
  o.session_id = session;
  o.jitter_seed = 7;
  return o;
}

struct ScopedDir {
  ScopedDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "hdsky_recovery_remote.XXXXXX")
                           .string();
    char* made = ::mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr);
    path = tmpl;
  }
  ~ScopedDir() { std::filesystem::remove_all(path); }
  std::string path;
};

TEST(RecoveryRemoteTest, InterruptedSessionResumesWithoutDoubleCharging) {
  const data::Table t = MakeBusyTable();
  constexpr uint64_t kSession = 4242;
  constexpr int64_t kBudget = 1000;

  // Clean in-process reference.
  auto clean_backend = MakeBackend(&t);
  auto clean = core::RqDbSky(clean_backend.get());
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_TRUE(clean->complete);

  auto backend = MakeBackend(&t);
  EventDrivenServer::Options sopts;
  sopts.per_client_query_budget = kBudget;
  auto server =
      std::move(EventDrivenServer::Start(backend.get(), sopts)).value();
  FaultInjectingProxy::Policy policy;
  policy.seed = 11;
  policy.drop_prob = 0.02;
  policy.truncate_prob = 0.02;
  auto proxy = std::move(FaultInjectingProxy::Start(
                             "127.0.0.1", server->port(), policy))
                   .value();

  ScopedDir dir;

  // Phase A: journaled run, interrupted after 40 paid queries. The
  // journal is abandoned without a final checkpoint — the moral
  // equivalent of the process dying.
  int64_t phase_a_paid = 0;
  {
    auto remote = std::move(RemoteHiddenDatabase::Connect(
                                "127.0.0.1", proxy->port(),
                                FastClient(kSession)))
                      .value();
    JournalingDatabase::Options jopts;
    RemoteHiddenDatabase* r = remote.get();
    jopts.seq_provider = [r] { return r->next_seq(); };
    auto journal =
        std::move(JournalingDatabase::Open(remote.get(), dir.path, jopts))
            .value();
    remote->set_next_seq(journal->next_wire_seq());

    core::RqDbSkyOptions opts;
    JournalingDatabase* j = journal.get();
    opts.common.interrupt = [j] { return j->stats().paid >= 40; };
    auto partial = core::RqDbSky(journal.get(), opts);
    ASSERT_TRUE(partial.ok()) << partial.status();
    EXPECT_FALSE(partial->complete);
    phase_a_paid = journal->stats().paid;
    ASSERT_GE(phase_a_paid, 40);
  }

  // Phase B: resume — same journal directory, same session id, same
  // hostile network. Journaled answers replay locally; only genuinely
  // new queries reach the server.
  int64_t journaled_entries = 0;
  {
    auto remote = std::move(RemoteHiddenDatabase::Connect(
                                "127.0.0.1", proxy->port(),
                                FastClient(kSession)))
                      .value();
    JournalingDatabase::Options jopts;
    RemoteHiddenDatabase* r = remote.get();
    jopts.seq_provider = [r] { return r->next_seq(); };
    auto journal =
        std::move(JournalingDatabase::Open(remote.get(), dir.path, jopts))
            .value();
    remote->set_next_seq(journal->next_wire_seq());
    EXPECT_TRUE(journal->resumed());
    EXPECT_GE(journal->entries(), phase_a_paid);

    auto resumed = core::RqDbSky(journal.get());
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    EXPECT_TRUE(resumed->complete);
    EXPECT_EQ(resumed->skyline_ids, clean->skyline_ids);
    EXPECT_EQ(resumed->query_cost, clean->query_cost);
    // The paid prefix really was free the second time around.
    EXPECT_GT(journal->stats().replayed, 0);
    journaled_entries = journal->entries();
  }

  // Server-side session budget must agree with the client's journal: a
  // fresh handshake under the same session id reports the budget minus
  // exactly one charge per journaled answer.
  {
    auto probe = RemoteHiddenDatabase::Connect("127.0.0.1", server->port(),
                                               FastClient(kSession));
    ASSERT_TRUE(probe.ok()) << probe.status();
    EXPECT_EQ((*probe)->server_remaining_budget(),
              kBudget - journaled_entries);
  }

  proxy->Stop();
  server->Stop();

  // Faults actually fired — this was not a clean network.
  const FaultInjectingProxy::Stats pstats = proxy->stats();
  EXPECT_GT(pstats.frames_dropped + pstats.frames_truncated, 0);

  // Exactly-once accounting at the backend: one execution per journaled
  // answer — retried sequences were replayed from the server's session
  // cache, and the resumed run re-charged nothing.
  const EventDrivenServer::Stats sstats = server->stats();
  EXPECT_EQ(sstats.queries_served, journaled_entries);
  EXPECT_EQ(backend->stats().queries_issued, journaled_entries);
}

}  // namespace
}  // namespace recovery
}  // namespace hdsky
