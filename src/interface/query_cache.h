// QueryCache: the sharded, single-flight answer map behind every query
// cache in the tree — the server's cross-session cache
// (service::EventDrivenServer) and the client-side CachingDatabase
// decorator.
//
// The paper's scarce resource is queries against the rate-limited hidden
// database, so an answer once paid for is never paid for again: the
// first caller to ask a key becomes the flight's owner and executes the
// query, every concurrent caller of the same key joins the in-flight
// execution, and later callers hit the cached answer.
//
// Single-flight protocol:
//   1. StartLookup(key) with a completion callback. Outcomes:
//        kHit   — a ready answer was copied out; the callback is unused.
//        kOwner — the caller must execute the query and call Complete();
//                 its callback fires from inside that Complete.
//        kWait  — another caller owns the flight; the callback fires when
//                 the owner completes (with the owner's status/result).
//   2. Complete(key, status, result) resolves the flight: an OK result is
//      cached for future hits; an error resolves the waiters but caches
//      nothing (errors are never memoized — a transient backend failure
//      must not poison the key forever).
//
// Threading: fully thread-safe; 32 independent {mutex, map} shards keyed
// by a hash of the key, so unrelated keys never contend and a serial
// caller takes one uncontended lock per hit. Callbacks run on the
// Complete() caller's thread and must not call back into the cache for
// the same key. Results travel as shared_ptr<const QueryResult> so
// resolving a flight with hundreds of waiters copies nothing.
//
// Capacity: max_entries bounds memory; when full, insertion evicts a
// random-ish victim from the same shard (cheap, and discovery workloads
// are sweep-shaped — precise LRU buys little over the paper's cost
// model). In-flight entries are never evicted.

#ifndef HDSKY_INTERFACE_QUERY_CACHE_H_
#define HDSKY_INTERFACE_QUERY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "interface/hidden_database.h"

namespace hdsky {
namespace interface {

class QueryCache {
 public:
  enum class Lookup {
    kHit,
    kOwner,
    kWait,
  };

  /// Completion callback: status of the flight plus the result (non-null
  /// iff status is OK).
  using Callback = std::function<void(
      const common::Status&, const std::shared_ptr<const QueryResult>&)>;

  struct Options {
    /// Max ready entries kept (0 = unlimited).
    size_t max_entries = 1 << 20;
  };

  struct Stats {
    int64_t hits = 0;    // answered from a ready entry
    int64_t owners = 0;  // flights started (== backend executions)
    int64_t joins = 0;   // callers who joined an in-flight execution
    int64_t evictions = 0;
  };

  QueryCache() : QueryCache(Options()) {}
  explicit QueryCache(Options options);

  /// See the single-flight protocol above. On kHit, *out receives the
  /// cached answer and `cb` is never invoked; on kOwner/kWait, `cb` is
  /// retained until the flight completes.
  Lookup StartLookup(const std::string& key,
                     std::shared_ptr<const QueryResult>* out, Callback cb);

  /// Resolves the flight for `key`, invoking every retained callback
  /// (owner's included). OK results are cached; errors are not. Calling
  /// Complete for a key with no in-flight entry is a no-op.
  void Complete(const std::string& key, const common::Status& status,
                std::shared_ptr<const QueryResult> result);

  /// Stores a ready answer for `key` (replacing a ready one). A key whose
  /// flight is in progress is left to its owner.
  void Insert(const std::string& key,
              std::shared_ptr<const QueryResult> result);

  /// Every ready entry, taken under all shard locks at once so the copy
  /// is a consistent point-in-time view.
  std::vector<std::pair<std::string, std::shared_ptr<const QueryResult>>>
  Snapshot() const;

  /// Ready entries currently cached (in-flight excluded).
  size_t size() const;

  Stats stats() const;

 private:
  static constexpr size_t kNumShards = 32;

  struct Entry {
    bool ready = false;
    std::shared_ptr<const QueryResult> result;
    /// Callbacks of the owner and all joined waiters, pending Complete.
    std::vector<Callback> pending;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, Entry> map;
  };

  Shard& ShardFor(const std::string& key);
  const Shard& ShardFor(const std::string& key) const;
  /// Evicts one ready entry other than `keep` once `shard` is over its
  /// share of max_entries. Caller holds shard.mu.
  void EvictIfFull(Shard& shard,
                   std::unordered_map<std::string, Entry>::iterator keep);

  Options options_;
  Shard shards_[kNumShards];
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> owners_{0};
  std::atomic<int64_t> joins_{0};
  std::atomic<int64_t> evictions_{0};
};

}  // namespace interface
}  // namespace hdsky

#endif  // HDSKY_INTERFACE_QUERY_CACHE_H_
