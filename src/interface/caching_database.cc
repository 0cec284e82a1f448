#include "interface/caching_database.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "common/fs_util.h"
#include "interface/cache_io.h"

namespace hdsky {
namespace interface {

using common::Result;
using common::Status;

CachingDatabase::CachingDatabase(HiddenDatabase* backend)
    : CachingDatabase(backend, Options()) {}

CachingDatabase::CachingDatabase(HiddenDatabase* backend, Options options)
    : backend_(backend), options_(options) {}

Status CachingDatabase::Fetch(const Query& q, QueryResult* result) {
  if (!options_.serialize_backend) return backend_->Execute(q, result);
  std::lock_guard<std::mutex> lock(backend_mu_);
  return backend_->Execute(q, result);
}

Result<QueryResult> CachingDatabase::Execute(const Query& q) {
  // Only legal queries are cacheable (and the legality check is free).
  HDSKY_RETURN_IF_ERROR(ValidateQuery(q));
  const std::string key = q.Signature();
  std::unique_lock<std::mutex> lock(mu_);
  if (auto it = answers_.find(key); it != answers_.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  if (auto it = flights_.find(key); it != flights_.end()) {
    // Another thread is fetching this query: share its outcome.
    const std::shared_ptr<Flight> flight = it->second;
    flight_done_.wait(lock, [&flight] { return flight->done; });
    if (!flight->status.ok()) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      return flight->status;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return answers_.at(key);
  }
  auto flight = std::make_shared<Flight>();
  flights_.emplace(key, flight);
  lock.unlock();

  QueryResult result;
  const Status s = Fetch(q, &result);

  lock.lock();
  flights_.erase(key);
  flight->done = true;
  flight->status = s;
  // A failed fetch (rate limit, transport error) is never memoized, so a
  // later call of the same query reaches the backend again.
  if (s.ok()) answers_.insert_or_assign(key, result);
  lock.unlock();
  flight_done_.notify_all();
  // Count the miss only once the backend actually produced an answer: a
  // failed fetch must not skew the hit ratio. It is tallied separately so
  // that hits + misses + errors always equals the accepted Execute calls.
  if (!s.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return s;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

int64_t CachingDatabase::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(answers_.size());
}

Status CachingDatabase::Save(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  cache_io::WriteHeader(out, answers_.size());
  for (const auto& [key, result] : answers_) {
    cache_io::WriteEntry(out, key, result);
  }
  return cache_io::FinishWrite(out);
}

Status CachingDatabase::SaveToFile(const std::string& path) const {
  // Serialize in memory, then replace the file atomically: a crash (or a
  // failed Save) must never destroy the previous cache — it holds paid
  // answers.
  std::ostringstream out;
  HDSKY_RETURN_IF_ERROR(Save(out));
  return common::AtomicWriteFile(path, out.str());
}

Status CachingDatabase::Load(std::istream& in) {
  HDSKY_ASSIGN_OR_RETURN(
      auto loaded, cache_io::ReadAll(in, schema().num_attributes(), k()));
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, result] : loaded) {
    answers_.insert_or_assign(std::move(key), std::move(result));
  }
  return Status::OK();
}

Status CachingDatabase::LoadFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  return Load(in);
}

}  // namespace interface
}  // namespace hdsky
