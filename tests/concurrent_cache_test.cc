// Concurrency tests for the shareable client-side substrate:
// CachingDatabase under real multi-threaded load (the TSan CI job's main
// target) plus its accounting invariants, persistence round trips
// between caches filled serially and in parallel, and the thread-safe
// query accounting of TopKInterface itself.

#include <atomic>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/synthetic.h"
#include "interface/caching_database.h"
#include "interface/ranking.h"
#include "interface/top_k_interface.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"

namespace hdsky {
namespace interface {
namespace {

constexpr int kThreads = 8;

data::Table MakeTable(int64_t n = 2000) {
  dataset::SyntheticOptions gen;
  gen.num_tuples = n;
  gen.num_attributes = 3;
  gen.domain_size = 50;
  gen.iface = data::InterfaceType::kRQ;
  gen.seed = 77;
  return std::move(dataset::GenerateSynthetic(gen)).value();
}

std::unique_ptr<TopKInterface> MakeBackend(const data::Table* t, int k = 5,
                                           int64_t budget = 0) {
  TopKOptions opts;
  opts.k = k;
  opts.query_budget = budget;
  return std::move(TopKInterface::Create(t, MakeSumRanking(), opts))
      .value();
}

// A deterministic workload of distinct legal range queries.
std::vector<Query> MakeQueries(const data::Schema& schema, int count) {
  std::vector<Query> queries;
  queries.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    Query q(schema.num_attributes());
    q.AddAtMost(i % 3, 5 + (i * 7) % 45);
    if (i % 2 == 0) q.AddAtLeast((i + 1) % 3, (i * 3) % 20);
    queries.push_back(std::move(q));
  }
  return queries;
}

TEST(ConcurrentCachingDatabaseTest, MatchesSerialCacheAnswers) {
  const data::Table t = MakeTable();
  const std::vector<Query> queries = MakeQueries(t.schema(), 64);

  // Serial reference.
  auto serial_backend = MakeBackend(&t);
  CachingDatabase serial(serial_backend.get());
  std::vector<QueryResult> expected;
  for (const Query& q : queries) {
    expected.push_back(std::move(serial.Execute(q)).value());
  }

  // 8 threads, each executing every query against one shared decorator.
  auto backend = MakeBackend(&t);
  CachingDatabase cached(backend.get());
  runtime::ThreadPool pool(kThreads);
  std::atomic<int> mismatches{0};
  runtime::ParallelFor(
      pool, 0, kThreads * static_cast<int64_t>(queries.size()),
      [&](int64_t i) {
        const size_t qi = static_cast<size_t>(i) % queries.size();
        auto r = cached.Execute(queries[qi]);
        if (!r.ok() || r->ids != expected[qi].ids ||
            r->overflow != expected[qi].overflow) {
          mismatches.fetch_add(1);
        }
      });
  EXPECT_EQ(mismatches.load(), 0);

  // Each distinct query reached the backend exactly once (the
  // double-checked miss path), so backend accounting matches serial.
  EXPECT_EQ(cached.misses(), static_cast<int64_t>(queries.size()));
  EXPECT_EQ(cached.hits(),
            static_cast<int64_t>((kThreads - 1) * queries.size()));
  EXPECT_EQ(cached.errors(), 0);
  EXPECT_EQ(cached.size(), static_cast<int64_t>(queries.size()));
  EXPECT_EQ(backend->stats().queries_issued,
            serial_backend->stats().queries_issued);
}

TEST(ConcurrentCachingDatabaseTest, NonSerializedBackendStaysCoherent) {
  // With serialize_backend = false the (thread-safe, static-ranking)
  // backend may see duplicate fetches under races, but every answer
  // must stay correct and accounting must still balance.
  const data::Table t = MakeTable();
  const std::vector<Query> queries = MakeQueries(t.schema(), 32);
  auto backend = MakeBackend(&t);

  CachingDatabase::Options opts;
  opts.serialize_backend = false;
  CachingDatabase cached(backend.get(), opts);

  auto ref_backend = MakeBackend(&t);
  std::vector<QueryResult> expected;
  for (const Query& q : queries) {
    expected.push_back(std::move(ref_backend->Execute(q)).value());
  }

  runtime::ThreadPool pool(kThreads);
  std::atomic<int> mismatches{0};
  const int64_t total = kThreads * static_cast<int64_t>(queries.size());
  runtime::ParallelFor(pool, 0, total, [&](int64_t i) {
    const size_t qi = static_cast<size_t>(i) % queries.size();
    auto r = cached.Execute(queries[qi]);
    if (!r.ok() || r->ids != expected[qi].ids) mismatches.fetch_add(1);
  });
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cached.hits() + cached.misses(), total);
  EXPECT_GE(cached.misses(), static_cast<int64_t>(queries.size()));
  EXPECT_EQ(cached.size(), static_cast<int64_t>(queries.size()));
}

TEST(ConcurrentCachingDatabaseTest, ErrorAccountingUnderBudget) {
  // Mirror of CachingDatabaseTest.AccountsBackendErrorsSeparately, under
  // concurrency: failed fetches count as errors, cache nothing, and
  // hits + misses + errors == accepted Execute calls.
  const data::Table t = MakeTable(200);
  const std::vector<Query> queries = MakeQueries(t.schema(), 16);
  const int64_t budget = 4;
  auto backend = MakeBackend(&t, 5, budget);
  CachingDatabase cached(backend.get());

  runtime::ThreadPool pool(kThreads);
  std::atomic<int64_t> ok_count{0}, exhausted_count{0};
  const int64_t total = kThreads * static_cast<int64_t>(queries.size());
  runtime::ParallelFor(pool, 0, total, [&](int64_t i) {
    const size_t qi = static_cast<size_t>(i) % queries.size();
    auto r = cached.Execute(queries[qi]);
    if (r.ok()) {
      ok_count.fetch_add(1);
    } else if (r.status().IsResourceExhausted()) {
      exhausted_count.fetch_add(1);
    }
  });
  EXPECT_EQ(ok_count.load() + exhausted_count.load(), total);
  EXPECT_EQ(cached.misses(), budget);  // backend answered exactly budget
  EXPECT_EQ(cached.size(), budget);    // only real answers were cached
  EXPECT_EQ(cached.errors(), exhausted_count.load());
  EXPECT_EQ(cached.hits() + cached.misses() + cached.errors(), total);
}

TEST(ConcurrentCachingDatabaseTest,
     RacingBudgetRejectionsKeepAccountingExact) {
  // The sharpest case for TopKInterface's optimistic budget claim/undo:
  // an unserialized concurrent cache racing threads straight into the
  // budget gate, so admissions, undo-and-refuse paths, and cache inserts
  // all interleave. The invariants must hold exactly:
  //   hits + misses + errors == accepted Execute calls, and
  //   the backend admitted precisely `budget` queries.
  const data::Table t = MakeTable(500);
  const int64_t budget = 24;
  auto backend = MakeBackend(&t, 5, budget);
  CachingDatabase::Options opts;
  opts.serialize_backend = false;  // TopKInterface is thread-safe
  CachingDatabase cached(backend.get(), opts);

  runtime::ThreadPool pool(kThreads);
  std::atomic<int64_t> ok_count{0}, exhausted_count{0}, other{0};
  const int64_t total = 512;
  runtime::ParallelFor(pool, 0, total, [&](int64_t i) {
    // Distinct query per index so every call races for a budget unit
    // (no intra-run cache hits except genuine cross-thread ones).
    Query q(t.schema().num_attributes());
    q.AddAtMost(static_cast<int>(i % 3), 1 + i % 47);
    q.AddAtLeast(static_cast<int>((i + 1) % 3), i % 5);
    auto r = cached.Execute(q);
    if (r.ok()) {
      ok_count.fetch_add(1);
    } else if (r.status().IsResourceExhausted()) {
      exhausted_count.fetch_add(1);
    } else {
      other.fetch_add(1);
    }
  });
  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(ok_count.load() + exhausted_count.load(), total);
  EXPECT_EQ(cached.hits() + cached.misses() + cached.errors(), total);
  EXPECT_EQ(cached.errors(), exhausted_count.load());
  // Claim/undo admitted exactly the budget, no unit lost to a race.
  EXPECT_EQ(backend->stats().queries_issued, budget);
  EXPECT_EQ(cached.misses(), budget);
  EXPECT_EQ(backend->RemainingBudget(), 0);
}

TEST(ConcurrentCachingDatabaseTest, SaveLoadInteropWithSerialCache) {
  const data::Table t = MakeTable();
  const std::vector<Query> queries = MakeQueries(t.schema(), 24);

  // Populate the concurrent cache in parallel, save it.
  auto backend = MakeBackend(&t);
  CachingDatabase cached(backend.get());
  runtime::ThreadPool pool(kThreads);
  runtime::ParallelFor(
      pool, 0, static_cast<int64_t>(queries.size()), [&](int64_t i) {
        ASSERT_TRUE(cached.Execute(queries[static_cast<size_t>(i)]).ok());
      });
  std::stringstream saved;
  ASSERT_TRUE(cached.Save(saved).ok());

  // A serial CachingDatabase loads it and replays without any backend.
  auto fresh_backend = MakeBackend(&t);
  CachingDatabase serial(fresh_backend.get());
  ASSERT_TRUE(serial.Load(saved).ok());
  EXPECT_EQ(serial.size(), static_cast<int64_t>(queries.size()));
  for (const Query& q : queries) {
    ASSERT_TRUE(serial.Execute(q).ok());
  }
  EXPECT_EQ(serial.misses(), 0);
  EXPECT_EQ(fresh_backend->stats().queries_issued, 0);

  // And the reverse direction: a serial save loads into the concurrent
  // decorator.
  std::stringstream serial_saved;
  ASSERT_TRUE(serial.Save(serial_saved).ok());
  auto another_backend = MakeBackend(&t);
  CachingDatabase reloaded(another_backend.get());
  ASSERT_TRUE(reloaded.Load(serial_saved).ok());
  EXPECT_EQ(reloaded.size(), static_cast<int64_t>(queries.size()));
  for (const Query& q : queries) {
    ASSERT_TRUE(reloaded.Execute(q).ok());
  }
  EXPECT_EQ(reloaded.misses(), 0);
  EXPECT_EQ(another_backend->stats().queries_issued, 0);
}

TEST(ConcurrentCachingDatabaseTest, RejectsMalformedStreamAtomically) {
  const data::Table t = MakeTable(100);
  auto backend = MakeBackend(&t);
  CachingDatabase cached(backend.get());
  std::stringstream bogus("not-a-cache 3\n");
  EXPECT_TRUE(cached.Load(bogus).IsIOError());
  EXPECT_EQ(cached.size(), 0);
}

TEST(TopKInterfaceConcurrencyTest, CountsEveryQueryUnderContention) {
  // 8 threads hammer one shared TopKInterface (static sum ranking =
  // shareable); the sharded tallies must add up exactly.
  const data::Table t = MakeTable();
  auto iface = MakeBackend(&t);
  const std::vector<Query> queries = MakeQueries(t.schema(), 40);
  runtime::ThreadPool pool(kThreads);
  const int64_t total = kThreads * static_cast<int64_t>(queries.size());
  std::atomic<int64_t> tuples_seen{0};
  runtime::ParallelFor(pool, 0, total, [&](int64_t i) {
    const size_t qi = static_cast<size_t>(i) % queries.size();
    auto r = iface->Execute(queries[qi]);
    ASSERT_TRUE(r.ok());
    tuples_seen.fetch_add(r->size());
  });
  const AccessStats stats = iface->stats();
  EXPECT_EQ(stats.queries_issued, total);
  EXPECT_EQ(stats.tuples_returned, tuples_seen.load());
  EXPECT_EQ(stats.rejected_queries, 0);
}

TEST(TopKInterfaceConcurrencyTest, BudgetIsExactUnderContention) {
  // The optimistic claim/undo admission must admit exactly
  // `query_budget` queries no matter how many threads race for them.
  const data::Table t = MakeTable(500);
  const int64_t budget = 100;
  auto iface = MakeBackend(&t, 5, budget);
  runtime::ThreadPool pool(kThreads);
  std::atomic<int64_t> admitted{0}, refused{0};
  runtime::ParallelFor(pool, 0, 400, [&](int64_t i) {
    // Distinct query per iteration index (vary the bound) so the cache
    // cannot help: every call must face the budget gate.
    Query q(t.schema().num_attributes());
    q.AddAtMost(static_cast<int>(i % 3), 1 + i % 47);
    q.AddAtLeast(static_cast<int>((i + 1) % 3), i % 5);
    auto r = iface->Execute(q);
    if (r.ok()) {
      admitted.fetch_add(1);
    } else if (r.status().IsResourceExhausted()) {
      refused.fetch_add(1);
    }
  });
  EXPECT_EQ(admitted.load(), budget);
  EXPECT_EQ(refused.load(), 400 - budget);
  EXPECT_EQ(iface->stats().queries_issued, budget);
  EXPECT_EQ(iface->RemainingBudget(), 0);
}

}  // namespace
}  // namespace interface
}  // namespace hdsky
