#include "interface/query_cache.h"

#include <utility>

namespace hdsky {
namespace interface {

using common::Status;

QueryCache::QueryCache(Options options) : options_(options) {}

QueryCache::Shard& QueryCache::ShardFor(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % kNumShards];
}

const QueryCache::Shard& QueryCache::ShardFor(const std::string& key) const {
  return shards_[std::hash<std::string>{}(key) % kNumShards];
}

QueryCache::Lookup QueryCache::StartLookup(
    const std::string& key, std::shared_ptr<const QueryResult>* out,
    Callback cb) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    Entry& entry = shard.map[key];
    entry.pending.push_back(std::move(cb));
    owners_.fetch_add(1, std::memory_order_relaxed);
    return Lookup::kOwner;
  }
  if (it->second.ready) {
    *out = it->second.result;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return Lookup::kHit;
  }
  it->second.pending.push_back(std::move(cb));
  joins_.fetch_add(1, std::memory_order_relaxed);
  return Lookup::kWait;
}

void QueryCache::Complete(const std::string& key, const Status& status,
                          std::shared_ptr<const QueryResult> result) {
  std::vector<Callback> pending;
  {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end() || it->second.ready) return;
    pending = std::move(it->second.pending);
    if (status.ok()) {
      it->second.ready = true;
      it->second.result = result;
      it->second.pending.clear();
      EvictIfFull(shard, it);
    } else {
      // Errors resolve the flight but are never memoized.
      shard.map.erase(it);
    }
  }
  // Callbacks run outside the shard lock: they post to event loops and
  // may trigger fresh lookups for other keys.
  for (Callback& cb : pending) {
    if (cb) cb(status, result);
  }
}

void QueryCache::Insert(const std::string& key,
                        std::shared_ptr<const QueryResult> result) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.map.try_emplace(key);
  if (!inserted && !it->second.ready) return;
  it->second.ready = true;
  it->second.result = std::move(result);
  if (inserted) EvictIfFull(shard, it);
}

void QueryCache::EvictIfFull(
    Shard& shard, std::unordered_map<std::string, Entry>::iterator keep) {
  if (options_.max_entries == 0 ||
      shard.map.size() <=
          (options_.max_entries + kNumShards - 1) / kNumShards) {
    return;
  }
  // The bucket walk makes the victim effectively arbitrary without
  // maintaining any recency structure under the hot-path lock.
  for (auto victim = shard.map.begin(); victim != shard.map.end();
       ++victim) {
    if (victim->second.ready && victim != keep) {
      shard.map.erase(victim);
      evictions_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
}

std::vector<std::pair<std::string, std::shared_ptr<const QueryResult>>>
QueryCache::Snapshot() const {
  std::unique_lock<std::mutex> locks[kNumShards];
  for (size_t s = 0; s < kNumShards; ++s) {
    locks[s] = std::unique_lock<std::mutex>(shards_[s].mu);
  }
  std::vector<std::pair<std::string, std::shared_ptr<const QueryResult>>>
      out;
  for (const Shard& shard : shards_) {
    for (const auto& [key, entry] : shard.map) {
      if (entry.ready) out.emplace_back(key, entry.result);
    }
  }
  return out;
}

size_t QueryCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, entry] : shard.map) {
      if (entry.ready) ++total;
    }
  }
  return total;
}

QueryCache::Stats QueryCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.owners = owners_.load(std::memory_order_relaxed);
  s.joins = joins_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace interface
}  // namespace hdsky
