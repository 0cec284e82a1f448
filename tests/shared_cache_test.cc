// Tests for CachingDatabase's single-flight answer map, as seen by the
// callers that share one instance: the first caller of a query owns its
// fetch, concurrent callers join that fetch, a failed fetch reaches
// every joiner and is not memoized, fetches of distinct queries do not
// wait on each other, and a multi-threaded stampede pays the backend
// once per query (the TSan CI job's SharedCache stress).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/synthetic.h"
#include "interface/caching_database.h"
#include "interface/ranking.h"
#include "interface/top_k_interface.h"

namespace hdsky {
namespace interface {
namespace {

data::Table MakeTable() {
  dataset::SyntheticOptions gen;
  gen.num_tuples = 500;
  gen.num_attributes = 3;
  gen.domain_size = 50;
  gen.iface = data::InterfaceType::kRQ;
  gen.seed = 31;
  return std::move(dataset::GenerateSynthetic(gen)).value();
}

std::unique_ptr<TopKInterface> MakeBackend(const data::Table* t) {
  return std::move(TopKInterface::Create(t, MakeSumRanking(), {})).value();
}

Query MakeQuery(int i) {
  Query q(3);
  q.AddAtMost(i % 3, (i / 3) % 50);
  q.AddAtLeast((i + 1) % 3, i / 150);
  return q;
}

/// Holds the fetch of `gated` (of every query when it is empty) until
/// the test opens the gate, then answers from `inner` or fails with the
/// status the gate was opened with. Counts validations, which
/// CachingDatabase::Execute runs first, so a test knows when its callers
/// have entered the cache.
class GatedBackend : public HiddenDatabase {
 public:
  explicit GatedBackend(HiddenDatabase* inner, std::string gated = "")
      : inner_(inner), gated_(std::move(gated)) {}

  using HiddenDatabase::Execute;
  common::Result<QueryResult> Execute(const Query& q) override {
    fetches_.fetch_add(1);
    if (!gated_.empty() && q.Signature() != gated_) {
      return inner_->Execute(q);
    }
    common::Status outcome;
    {
      std::unique_lock<std::mutex> lock(mu_);
      opened_.wait(lock, [this] { return open_; });
      outcome = outcome_;
    }
    if (!outcome.ok()) return outcome;
    return inner_->Execute(q);
  }
  const data::Schema& schema() const override { return inner_->schema(); }
  int k() const override { return inner_->k(); }
  common::Status ValidateQuery(const Query& q) const override {
    validations_.fetch_add(1);
    return inner_->ValidateQuery(q);
  }

  void Open(common::Status outcome) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
      outcome_ = std::move(outcome);
    }
    opened_.notify_all();
  }
  int fetches() const { return fetches_.load(); }
  int validations() const { return validations_.load(); }

 private:
  HiddenDatabase* inner_;
  const std::string gated_;
  std::mutex mu_;
  std::condition_variable opened_;
  bool open_ = false;
  common::Status outcome_;
  std::atomic<int> fetches_{0};
  mutable std::atomic<int> validations_{0};
};

/// Runs `callers` concurrent Execute(q) calls on `cached` while the gate
/// holds the first caller's fetch, opens it with `outcome` once every
/// caller is inside the cache, and returns each caller's result.
std::vector<common::Result<QueryResult>> RaceOneQuery(
    CachingDatabase* cached, GatedBackend* gated, const Query& q,
    int callers, common::Status outcome) {
  std::vector<common::Result<QueryResult>> results(
      static_cast<size_t>(callers), common::Status::Internal("not run"));
  std::vector<std::thread> threads;
  threads.emplace_back([&] { results[0] = cached->Execute(q); });
  while (gated->fetches() == 0) std::this_thread::yield();
  for (int i = 1; i < callers; ++i) {
    threads.emplace_back(
        [&, i] { results[static_cast<size_t>(i)] = cached->Execute(q); });
  }
  while (gated->validations() < callers) std::this_thread::yield();
  // Each caller has validated; give the last ones time to reach the
  // flight before it resolves.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gated->Open(std::move(outcome));
  for (std::thread& th : threads) th.join();
  return results;
}

TEST(SharedCacheTest, FirstLookupOwnsLaterLookupsHit) {
  const data::Table t = MakeTable();
  auto backend = MakeBackend(&t);
  GatedBackend gated(backend.get());
  CachingDatabase cached(&gated);
  const Query q = MakeQuery(7);

  common::Result<QueryResult> first = common::Status::Internal("not run");
  std::thread owner([&] { first = cached.Execute(q); });
  while (gated.fetches() == 0) std::this_thread::yield();
  // The owner's fetch is in flight: nothing is cached before it lands.
  EXPECT_EQ(cached.size(), 0);
  gated.Open(common::Status::OK());
  owner.join();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(cached.misses(), 1);
  EXPECT_EQ(cached.size(), 1);

  // Lookups after the flight landed are served from the map.
  for (int i = 0; i < 3; ++i) {
    auto later = cached.Execute(q);
    ASSERT_TRUE(later.ok()) << later.status();
    EXPECT_EQ(later->ids, first->ids);
  }
  EXPECT_EQ(gated.fetches(), 1);
  EXPECT_EQ(cached.hits(), 3);
  EXPECT_EQ(cached.misses(), 1);
}

TEST(SharedCacheTest, WaitersJoinTheFlightAndAllResolve) {
  const data::Table t = MakeTable();
  auto backend = MakeBackend(&t);
  GatedBackend gated(backend.get());
  CachingDatabase cached(&gated);
  const Query q = MakeQuery(3);

  const auto results =
      RaceOneQuery(&cached, &gated, q, 6, common::Status::OK());
  const QueryResult expected = std::move(backend->Execute(q)).value();
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->ids, expected.ids);
  }
  EXPECT_EQ(gated.fetches(), 1);  // owner + 5 joiners, one fetch
  EXPECT_EQ(cached.misses(), 1);
  EXPECT_EQ(cached.hits(), 5);
  EXPECT_EQ(cached.size(), 1);
}

TEST(SharedCacheTest, ErrorsResolveWaitersButAreNotMemoized) {
  const data::Table t = MakeTable();
  auto backend = MakeBackend(&t);
  GatedBackend gated(backend.get());
  CachingDatabase cached(&gated);
  const Query q = MakeQuery(3);

  // Every caller waiting on the failed fetch gets its error...
  const auto results = RaceOneQuery(&cached, &gated, q, 6,
                                    common::Status::IOError("backend down"));
  for (const auto& r : results) {
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsIOError()) << r.status();
  }
  EXPECT_EQ(gated.fetches(), 1);
  EXPECT_EQ(cached.errors(), 6);
  EXPECT_EQ(cached.size(), 0);

  // ...and a transient failure does not poison the query: the next call
  // fetches again and can succeed.
  gated.Open(common::Status::OK());
  ASSERT_TRUE(cached.Execute(q).ok());
  EXPECT_EQ(gated.fetches(), 2);
  ASSERT_TRUE(cached.Execute(q).ok());
  EXPECT_EQ(gated.fetches(), 2);
  EXPECT_EQ(cached.misses(), 1);
  EXPECT_EQ(cached.hits(), 1);
}

TEST(SharedCacheTest, DistinctQueriesDoNotWaitOnEachOthersFlight) {
  // Flights are per query and the map lock is not held across a fetch:
  // with an unserialized backend, a query whose fetch is stuck does not
  // hold up a different query.
  const data::Table t = MakeTable();
  auto backend = MakeBackend(&t);
  const Query stuck = MakeQuery(1);
  const Query other = MakeQuery(2);
  GatedBackend gated(backend.get(), stuck.Signature());
  CachingDatabase::Options opts;
  opts.serialize_backend = false;  // TopKInterface is thread-safe
  CachingDatabase cached(&gated, opts);

  std::atomic<bool> stuck_done{false};
  std::thread owner([&] {
    EXPECT_TRUE(cached.Execute(stuck).ok());
    stuck_done.store(true);
  });
  while (gated.fetches() == 0) std::this_thread::yield();
  auto r = cached.Execute(other);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(stuck_done.load());
  EXPECT_EQ(cached.size(), 1);  // only the other query has landed

  gated.Open(common::Status::OK());
  owner.join();
  EXPECT_EQ(gated.fetches(), 2);
  EXPECT_EQ(cached.misses(), 2);
  EXPECT_EQ(cached.size(), 2);
}

TEST(SharedCacheTest, ConcurrentStampedePaysBackendOnce) {
  // 8 threads race through the same 200 queries in the same order with
  // backend serialization off, so the single-flight map alone must keep
  // every query to exactly one backend fetch, and every caller must see
  // that fetch's answer.
  const data::Table t = MakeTable();
  constexpr int kThreads = 8;
  constexpr int kQueries = 200;
  std::vector<Query> queries;
  std::set<std::string> signatures;
  for (int i = 0; i < kQueries; ++i) {
    queries.push_back(MakeQuery(i));
    signatures.insert(queries.back().Signature());
  }
  ASSERT_EQ(signatures.size(), static_cast<size_t>(kQueries));

  auto reference = MakeBackend(&t);
  std::vector<QueryResult> expected;
  for (const Query& q : queries) {
    expected.push_back(std::move(reference->Execute(q)).value());
  }

  auto backend = MakeBackend(&t);
  CachingDatabase::Options opts;
  opts.serialize_backend = false;  // TopKInterface is thread-safe
  CachingDatabase cached(backend.get(), opts);
  std::atomic<int> mismatches{0};
  {
    std::vector<std::jthread> threads;
    threads.reserve(kThreads);
    for (int th = 0; th < kThreads; ++th) {
      threads.emplace_back([&] {
        for (int i = 0; i < kQueries; ++i) {
          auto r = cached.Execute(queries[static_cast<size_t>(i)]);
          if (!r.ok() ||
              r->ids != expected[static_cast<size_t>(i)].ids) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(backend->stats().queries_issued, kQueries);
  EXPECT_EQ(cached.misses(), kQueries);
  EXPECT_EQ(cached.hits(), (kThreads - 1) * kQueries);
  EXPECT_EQ(cached.errors(), 0);
  EXPECT_EQ(cached.size(), kQueries);
}

}  // namespace
}  // namespace interface
}  // namespace hdsky
