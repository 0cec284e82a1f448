// Tests for the single-flight QueryCache: ownership,
// waiter resolution, error non-memoization, eviction bounds, and a
// multi-threaded stampede (the TSan CI job's SharedCache stress).

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "interface/query_cache.h"

namespace hdsky {
namespace service {
namespace {

using common::Status;
using interface::QueryCache;
using interface::QueryResult;

std::shared_ptr<const QueryResult> MakeResult(int64_t id) {
  auto r = std::make_shared<QueryResult>();
  r->ids.push_back(id);
  return r;
}

TEST(SharedCacheTest, FirstLookupOwnsLaterLookupsHit) {
  QueryCache cache;
  std::shared_ptr<const QueryResult> out;
  int owner_cb = 0;
  ASSERT_EQ(cache.StartLookup(
                "q1", &out,
                [&](const Status& s, const auto& r) {
                  EXPECT_TRUE(s.ok());
                  ASSERT_NE(r, nullptr);
                  EXPECT_EQ(r->ids[0], 7);
                  ++owner_cb;
                }),
            QueryCache::Lookup::kOwner);
  cache.Complete("q1", Status::OK(), MakeResult(7));
  EXPECT_EQ(owner_cb, 1);

  ASSERT_EQ(cache.StartLookup("q1", &out, nullptr),
            QueryCache::Lookup::kHit);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->ids[0], 7);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().owners, 1);
}

TEST(SharedCacheTest, WaitersJoinTheFlightAndAllResolve) {
  QueryCache cache;
  std::shared_ptr<const QueryResult> out;
  int resolved = 0;
  auto cb = [&](const Status& s, const auto& r) {
    EXPECT_TRUE(s.ok());
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->ids[0], 3);
    ++resolved;
  };
  ASSERT_EQ(cache.StartLookup("k", &out, cb),
            QueryCache::Lookup::kOwner);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(cache.StartLookup("k", &out, cb),
              QueryCache::Lookup::kWait);
  }
  EXPECT_EQ(resolved, 0);  // nothing fires before Complete
  cache.Complete("k", Status::OK(), MakeResult(3));
  EXPECT_EQ(resolved, 6);  // owner + 5 waiters, one Complete
  EXPECT_EQ(cache.stats().joins, 5);
}

TEST(SharedCacheTest, ErrorsResolveWaitersButAreNotMemoized) {
  QueryCache cache;
  std::shared_ptr<const QueryResult> out;
  int failures = 0;
  auto cb = [&](const Status& s, const auto& r) {
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(r, nullptr);
    ++failures;
  };
  ASSERT_EQ(cache.StartLookup("k", &out, cb),
            QueryCache::Lookup::kOwner);
  ASSERT_EQ(cache.StartLookup("k", &out, cb),
            QueryCache::Lookup::kWait);
  cache.Complete("k", Status::IOError("backend down"), nullptr);
  EXPECT_EQ(failures, 2);
  EXPECT_EQ(cache.size(), 0u);
  // A transient failure must not poison the key: the next lookup starts
  // a fresh flight and can succeed.
  ASSERT_EQ(cache.StartLookup(
                "k", &out, [&](const Status& s, const auto&) {
                  EXPECT_TRUE(s.ok());
                }),
            QueryCache::Lookup::kOwner);
  cache.Complete("k", Status::OK(), MakeResult(1));
  ASSERT_EQ(cache.StartLookup("k", &out, nullptr),
            QueryCache::Lookup::kHit);
}

TEST(SharedCacheTest, CompleteForUnknownKeyIsANoOp) {
  QueryCache cache;
  cache.Complete("never-started", Status::OK(), MakeResult(1));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SharedCacheTest, EvictionKeepsReadyEntriesBounded) {
  QueryCache::Options options;
  options.max_entries = 32;
  QueryCache cache(options);
  std::shared_ptr<const QueryResult> out;
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "key-" + std::to_string(i);
    ASSERT_EQ(cache.StartLookup(key, &out, nullptr),
              QueryCache::Lookup::kOwner);
    cache.Complete(key, Status::OK(), MakeResult(i));
  }
  // Per-shard slack allows a little overshoot, but the cache must stay
  // within a small multiple of the configured bound, far below 1000.
  EXPECT_LE(cache.size(), 32u + 32u);
  EXPECT_GT(cache.stats().evictions, 0);
}

TEST(SharedCacheTest, ConcurrentStampedePaysBackendOnce) {
  // 8 threads race 200 keys; every key must get exactly one owner, and
  // every participant must observe the owner's result.
  QueryCache cache;
  constexpr int kThreads = 8;
  constexpr int kKeys = 200;
  std::atomic<int> owners{0};
  std::atomic<int> resolved{0};
  std::atomic<int> hits{0};
  {
    std::vector<std::jthread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kKeys; ++i) {
          const std::string key = "key-" + std::to_string(i);
          std::shared_ptr<const interface::QueryResult> out;
          auto cb = [&resolved, i](const Status& s, const auto& r) {
            ASSERT_TRUE(s.ok());
            ASSERT_NE(r, nullptr);
            EXPECT_EQ(r->ids[0], i);
            resolved.fetch_add(1);
          };
          switch (cache.StartLookup(key, &out, cb)) {
            case QueryCache::Lookup::kOwner:
              owners.fetch_add(1);
              // The "backend execution": complete with the key's value.
              cache.Complete(key, Status::OK(), MakeResult(i));
              break;
            case QueryCache::Lookup::kWait:
              break;
            case QueryCache::Lookup::kHit:
              ASSERT_NE(out, nullptr);
              EXPECT_EQ(out->ids[0], i);
              hits.fetch_add(1);
              break;
          }
        }
      });
    }
  }
  EXPECT_EQ(owners.load(), kKeys);  // single flight per key
  // Everyone got an answer, through one of the three paths.
  EXPECT_EQ(resolved.load() + hits.load(), kThreads * kKeys);
  EXPECT_EQ(cache.size(), static_cast<size_t>(kKeys));
}

}  // namespace
}  // namespace service
}  // namespace hdsky
