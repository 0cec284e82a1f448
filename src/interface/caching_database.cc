#include "interface/caching_database.h"

#include <condition_variable>
#include <fstream>
#include <memory>
#include <sstream>

#include "common/fs_util.h"
#include "interface/cache_io.h"

namespace hdsky {
namespace interface {

using common::Result;
using common::Status;

namespace {

/// Where a synchronous caller learns how its flight resolved. The owner's
/// callback fires inside its own Complete call; a caller that joined
/// another thread's flight blocks here until that owner completes.
struct Flight {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status status;
  std::shared_ptr<const QueryResult> result;
};

}  // namespace

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
  Flight flight;
  std::shared_ptr<const QueryResult> ready;
  const QueryCache::Lookup lookup = cache_.StartLookup(
      key, &ready,
      [&flight](const Status& status,
                const std::shared_ptr<const QueryResult>& result) {
        std::lock_guard<std::mutex> lock(flight.mu);
        flight.status = status;
        flight.result = result;
        flight.done = true;
        // Notified under the lock: the waiter's frame owns `flight` and
        // may destroy it as soon as it can reacquire the mutex.
        flight.cv.notify_one();
      });
  switch (lookup) {
    case QueryCache::Lookup::kHit:
      hits_.fetch_add(1, std::memory_order_relaxed);
      return *ready;
    case QueryCache::Lookup::kOwner: {
      // Count the miss only once the backend actually produced an answer:
      // a failed fetch (rate limit, transport error) caches nothing and
      // must not skew the hit ratio — it is tallied separately so that
      // hits + misses + errors always equals the accepted Execute calls.
      auto result = std::make_shared<QueryResult>();
      const Status s = Fetch(q, result.get());
      if (!s.ok()) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        cache_.Complete(key, s, nullptr);
        return s;
      }
      misses_.fetch_add(1, std::memory_order_relaxed);
      cache_.Complete(key, s, result);
      return *result;
    }
    case QueryCache::Lookup::kWait:
      break;
  }
  std::unique_lock<std::mutex> lock(flight.mu);
  flight.cv.wait(lock, [&flight] { return flight.done; });
  if (!flight.status.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return flight.status;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return *flight.result;
}

Status CachingDatabase::Save(std::ostream& out) const {
  const auto entries = cache_.Snapshot();
  cache_io::WriteHeader(out, entries.size());
  for (const auto& [key, result] : entries) {
    cache_io::WriteEntry(out, key, *result);
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
  for (auto& [key, result] : loaded) {
    cache_.Insert(key, std::make_shared<const QueryResult>(std::move(result)));
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
