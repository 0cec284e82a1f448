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
#include <fstream>
#include <iterator>
#include <regex>
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

  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
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

TEST_F(SessionTest, ResumeLineReportsItsReadTimeAndReplaysEveryAnswer) {
  SessionConfig c = Demo();
  c.journal = dir_ + "/journal";
  c.checkpoint_every = 16;
  c.trace = dir_ + "/trace1.csv";
  c.out = dir_ + "/skyline1.csv";
  const SessionReport first = Run(c);
  ASSERT_GT(first.result.query_cost, 32);  // several sealed segments

  std::FILE* err = std::tmpfile();
  ASSERT_NE(err, nullptr);
  env_.err = err;
  c.trace = dir_ + "/trace2.csv";
  c.out = dir_ + "/skyline2.csv";
  const SessionReport resumed = Run(c);
  env_.err = sink_;
  std::string printed(static_cast<size_t>(std::ftell(err)), '\0');
  std::rewind(err);
  printed.resize(std::fread(printed.data(), 1, printed.size(), err));
  std::fclose(err);

  const std::regex line("journal : resuming " + c.journal +
                        " \\(([0-9]+) journaled answers, epoch [0-9]+, read "
                        "in [0-9]+\\.[0-9] ms\\)\n");
  std::smatch m;
  ASSERT_TRUE(std::regex_search(printed, m, line)) << printed;
  EXPECT_EQ(std::stoll(m[1].str()), first.result.query_cost);

  EXPECT_EQ(resumed.journal.paid, 0);
  EXPECT_EQ(resumed.journal.replayed, first.result.query_cost);
  EXPECT_EQ(ReadFile(dir_ + "/trace2.csv"), ReadFile(dir_ + "/trace1.csv"));
  EXPECT_EQ(ReadFile(dir_ + "/skyline2.csv"),
            ReadFile(dir_ + "/skyline1.csv"));
  EXPECT_FALSE(ReadFile(dir_ + "/skyline1.csv").empty());
}

TEST_F(SessionTest, JournalOfAnOlderSnapshotFormatIsRefused) {
  SessionConfig c = Demo();
  c.journal = dir_ + "/journal";
  std::filesystem::create_directory(c.journal);
  std::FILE* f = std::fopen((c.journal + "/MANIFEST").c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("hdsky-manifest-v1 2 1\n", f);
  std::fclose(f);
  EXPECT_EQ(RunSession(c, env_).exit, kExitDataFormat);
  EXPECT_EQ(ReadFile(c.journal + "/MANIFEST"), "hdsky-manifest-v1 2 1\n");
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
