// RunSession over one fixed-seed demo through every local layer stack:
// in-memory, cached, journaled (run, resume, and interrupt-then-resume)
// and a packed file read through pread. Every stack must find the same
// skyline at the same query cost, and a resumed session must pay the
// backend for nothing it already paid for.

#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/block_file.h"
#include "dataset/pack.h"
#include "session/session.h"
#include "test_util.h"

namespace hdsky {
namespace session {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl = ::testing::TempDir() + "/hdsky_session_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
    sink_ = std::fopen("/dev/null", "w");
    ASSERT_NE(sink_, nullptr);
    env_.out = sink_;
    env_.err = sink_;
  }
  void TearDown() override {
    std::fclose(sink_);
    std::filesystem::remove_all(dir_);
  }

  static SessionConfig Demo() {
    SessionConfig c;
    c.source.demo = "bluenile";
    c.source.n = 1500;
    c.source.seed = 11;
    c.algorithm = "rq";
    return c;
  }

  SessionReport Run(const SessionConfig& c) {
    SessionReport report = RunSession(c, env_);
    EXPECT_EQ(report.exit, kExitOk);
    return report;
  }

  static std::vector<data::TupleId> Ids(const core::DiscoveryResult& r) {
    std::vector<data::TupleId> ids = r.skyline_ids;
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  std::string dir_;
  std::FILE* sink_ = nullptr;
  SessionEnv env_;
};

TEST_F(SessionTest, EveryLocalStackFindsTheSameSkylineAtTheSameCost) {
  const SessionReport plain = Run(Demo());
  ASSERT_TRUE(plain.result.complete);
  ASSERT_FALSE(plain.result.skyline.empty());
  auto table = LoadTable(Demo().source);
  ASSERT_TRUE(table.ok());
  testutil::ExpectExactSkyline(plain.result, *table);

  SessionConfig cached = Demo();
  cached.cache = true;
  SessionConfig journaled = Demo();
  journaled.journal = dir_ + "/journal";
  journaled.checkpoint_every = 7;

  // The same table packed in rank order, read back through pread with a
  // pool far smaller than the data.
  const std::string packed_path = dir_ + "/bluenile.hdb";
  auto ranking = MakeRanking(Demo().source, table->schema());
  ASSERT_TRUE(ranking.ok());
  ASSERT_TRUE(dataset::PackTable(*table, *ranking, packed_path,
                                 data::BlockFileOptions())
                  .ok());
  SessionConfig packed = Demo();
  packed.source.demo.clear();
  packed.source.dataset_file = packed_path;
  packed.source.read_path = "pread";
  packed.source.buffer_pool_bytes = 16384;

  for (const SessionConfig& c : {cached, journaled, packed}) {
    const SessionReport r = Run(c);
    EXPECT_TRUE(r.result.complete);
    EXPECT_EQ(Ids(r.result), Ids(plain.result));
    EXPECT_EQ(r.result.query_cost, plain.result.query_cost);
  }
}

TEST_F(SessionTest, ResumingAFinishedJournalPaysNothing) {
  SessionConfig c = Demo();
  c.journal = dir_ + "/journal";
  const SessionReport first = Run(c);
  EXPECT_EQ(first.journal.paid, first.result.query_cost);
  EXPECT_EQ(first.journal.replayed, 0);

  const SessionReport resumed = Run(c);
  EXPECT_EQ(Ids(resumed.result), Ids(first.result));
  EXPECT_EQ(resumed.result.query_cost, first.result.query_cost);
  EXPECT_EQ(resumed.journal.paid, 0);
}

TEST_F(SessionTest, InterruptedJournalResumesWithoutRepaying) {
  const SessionReport reference = Run(Demo());
  ASSERT_GT(reference.result.query_cost, 40);

  SessionConfig c = Demo();
  c.journal = dir_ + "/journal";
  c.checkpoint_every = 5;
  std::atomic<int64_t> polls{0};
  env_.interrupt = [&polls] { return ++polls > 30; };
  const SessionReport partial = Run(c);
  EXPECT_FALSE(partial.result.complete);
  EXPECT_GT(partial.journal.paid, 0);
  EXPECT_LT(partial.journal.paid, reference.result.query_cost);

  env_.interrupt = nullptr;
  const SessionReport resumed = Run(c);
  EXPECT_TRUE(resumed.result.complete);
  EXPECT_EQ(Ids(resumed.result), Ids(reference.result));
  EXPECT_EQ(resumed.result.query_cost, reference.result.query_cost);
  EXPECT_EQ(partial.journal.paid + resumed.journal.paid,
            reference.result.query_cost);
}

TEST_F(SessionTest, JournalRefusesAnotherAlgorithm) {
  SessionConfig c = Demo();
  c.journal = dir_ + "/journal";
  Run(c);
  c.algorithm = "mq";
  EXPECT_EQ(RunSession(c, env_).exit, kExitFailure);
}

TEST_F(SessionTest, TrialsMatchSingleRunsOfTheirSeeds) {
  SessionConfig c = Demo();
  c.trials = 3;
  c.threads = 2;
  const SessionReport trials = Run(c);
  ASSERT_EQ(trials.trials.size(), 3u);
  for (int64_t i = 0; i < 3; ++i) {
    SessionConfig single = Demo();
    single.source.seed = Demo().source.seed + i;
    const SessionReport r = Run(single);
    EXPECT_EQ(Ids(trials.trials[static_cast<size_t>(i)]), Ids(r.result));
    EXPECT_EQ(trials.trials[static_cast<size_t>(i)].query_cost,
              r.result.query_cost);
  }
}

TEST_F(SessionTest, UnknownLexAttributeFailsAfterLoading) {
  SessionConfig c = Demo();
  c.source.ranking = "lex:no_such_attribute";
  EXPECT_EQ(RunSession(c, env_).exit, kExitFailure);
}

}  // namespace
}  // namespace session
}  // namespace hdsky
