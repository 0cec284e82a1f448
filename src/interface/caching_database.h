// Client-side answer cache as a HiddenDatabase decorator.
//
// A real discovery client caches the web responses it has paid for:
// re-issuing an identical query costs no API quota. CachingDatabase
// wraps ANY backend (the simulator, a CallbackDatabase over a real HTTP
// client, a RemoteHiddenDatabase, ...) and serves repeated queries from
// a map keyed by the query's predicate signature.
//
// Combined with the algorithms' determinism this yields RESUMABLE
// discovery across rate-limit windows and even across processes: persist
// the cache with Save, reload it with Load in the next session, re-run
// the algorithm — the cached prefix replays for free and only new
// queries reach the backend. examples/flight_search.cpp demonstrates the
// daily-quota workflow.
//
// Thread safety: Execute may be called concurrently from any number of
// threads (the parallel trial harness shares one paid-for answer pool
// this way). The map is single-flight: the first caller of a query
// fetches it, and concurrent callers of the same query wait for that
// fetch instead of starting their own, so each distinct query reaches
// the backend at most once however many threads race for it. A serial
// caller pays one uncontended lock per query. See docs/concurrency.md.
//
// Backend discipline: by default every backend fetch runs under one
// backend mutex, because a HiddenDatabase backend is not required to be
// thread-safe. Clients that wrap a thread-safe backend can opt out via
// Options::serialize_backend = false so fetches of different queries
// overlap.

#ifndef HDSKY_INTERFACE_CACHING_DATABASE_H_
#define HDSKY_INTERFACE_CACHING_DATABASE_H_

#include <atomic>
#include <condition_variable>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "interface/hidden_database.h"

namespace hdsky {
namespace interface {

class CachingDatabase : public HiddenDatabase {
 public:
  struct Options {
    /// Serialize backend fetches under one mutex (safe for any backend).
    /// Set false only when the backend itself is thread-safe.
    bool serialize_backend = true;
  };

  /// Wraps `backend`, which must outlive this object.
  explicit CachingDatabase(HiddenDatabase* backend);
  CachingDatabase(HiddenDatabase* backend, Options options);

  /// Thread-safe; callable concurrently from any number of threads.
  using HiddenDatabase::Execute;
  common::Result<QueryResult> Execute(const Query& q) override;

  const data::Schema& schema() const override {
    return backend_->schema();
  }
  int k() const override { return backend_->k(); }
  common::Status ValidateQuery(const Query& q) const override {
    return backend_->ValidateQuery(q);
  }

  /// Accounting invariant: hits() + misses() + errors() equals the number
  /// of Execute calls that passed validation. A miss is counted only when
  /// the backend produced an answer; failed fetches (rate limits,
  /// transport errors) count as errors and cache nothing, so a later
  /// retry of the same query still reaches the backend. A call that
  /// joined another thread's in-flight fetch counts as a hit when the
  /// fetch succeeded and as an error when it failed.
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  int64_t errors() const {
    return errors_.load(std::memory_order_relaxed);
  }
  int64_t size() const;

  /// Persists the cache in the versioned hdsky-cache-v1 text format
  /// (cache_io.h) from a consistent snapshot.
  common::Status Save(std::ostream& out) const;
  common::Status SaveToFile(const std::string& path) const;

  /// Merges previously saved entries into the cache. Fails (and loads
  /// nothing) on a malformed stream.
  common::Status Load(std::istream& in);
  common::Status LoadFromFile(const std::string& path);

 private:
  /// A backend fetch in progress. Callers of the same query wait for it
  /// and, when it fails, return its status.
  struct Flight {
    bool done = false;
    common::Status status;
  };

  /// Runs the backend fetch for a flight this call owns.
  common::Status Fetch(const Query& q, QueryResult* result);

  HiddenDatabase* backend_;
  Options options_;
  std::mutex backend_mu_;  // only used when serialize_backend
  mutable std::mutex mu_;  // guards answers_ and flights_
  std::condition_variable flight_done_;
  /// Fetched and loaded answers by signature. Unbounded: every entry is
  /// a paid answer. Failed fetches never enter it.
  std::unordered_map<std::string, QueryResult> answers_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> errors_{0};
};

}  // namespace interface
}  // namespace hdsky

#endif  // HDSKY_INTERFACE_CACHING_DATABASE_H_
