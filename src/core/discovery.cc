#include "core/discovery.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "net/wire.h"

namespace hdsky {
namespace core {

using common::Result;
using common::Status;
using data::Tuple;
using data::TupleId;
using interface::Query;
using interface::QueryResult;

bool SkylineCollector::Observe(TupleId id, const Tuple& t) {
  if (!observed_.insert(id).second) return false;
  if (index_.DominatedOrEqual(t)) return false;
  return AddConfirmed(id, t);
}

bool SkylineCollector::AddConfirmed(TupleId id, const Tuple& t) {
  if (!id_set_.insert(id).second) return false;
  ids_.push_back(id);
  tuples_.push_back(t);
  index_.Insert(t);
  return true;
}

bool SkylineCollector::IsDominated(const Tuple& t) const {
  return index_.Dominated(t);
}

bool SkylineCollector::IsDominatedOrDuplicate(const Tuple& t) const {
  return index_.DominatedOrEqual(t);
}

void SkylineCollector::Finish(DiscoveryResult* result) const {
  std::vector<size_t> perm(ids_.size());
  std::iota(perm.begin(), perm.end(), 0);
  std::sort(perm.begin(), perm.end(),
            [this](size_t a, size_t b) { return ids_[a] < ids_[b]; });
  result->skyline_ids.clear();
  result->skyline.clear();
  result->skyline_ids.reserve(ids_.size());
  result->skyline.reserve(ids_.size());
  for (size_t p : perm) {
    result->skyline_ids.push_back(ids_[p]);
    result->skyline.push_back(tuples_[p]);
  }
}

void SkylineCollector::SaveState(std::string* out) const {
  net::Encoder enc(out);
  enc.PutU64(static_cast<uint64_t>(ids_.size()));
  for (size_t i = 0; i < ids_.size(); ++i) {
    enc.PutI64(ids_[i]);
    enc.PutU32(static_cast<uint32_t>(tuples_[i].size()));
    for (data::Value v : tuples_[i]) enc.PutI64(v);
  }
}

Status SkylineCollector::RestoreState(std::string_view blob,
                                      int num_attributes) {
  if (!ids_.empty()) {
    return Status::Internal("RestoreState on a non-empty SkylineCollector");
  }
  net::Decoder dec(blob);
  uint64_t count = 0;
  if (!dec.GetU64(&count)) {
    return Status::IOError("truncated collector state");
  }
  for (uint64_t i = 0; i < count; ++i) {
    int64_t id = 0;
    uint32_t width = 0;
    dec.GetI64(&id);
    if (!dec.GetU32(&width) ||
        static_cast<size_t>(width) * 8 > dec.remaining()) {
      return Status::IOError("truncated collector state tuple");
    }
    if (width != static_cast<uint32_t>(num_attributes)) {
      return Status::IOError("collector state tuple width " +
                             std::to_string(width) + " does not match the " +
                             std::to_string(num_attributes) +
                             "-attribute schema");
    }
    Tuple t(width);
    for (uint32_t a = 0; a < width; ++a) dec.GetI64(&t[a]);
    if (!dec.ok()) return Status::IOError("truncated collector state tuple");
    AddConfirmed(id, t);
    observed_.insert(id);
  }
  if (!dec.exhausted()) {
    return Status::IOError("collector state carries trailing bytes");
  }
  return Status::OK();
}

DiscoveryRun::DiscoveryRun(interface::HiddenDatabase* iface,
                           const DiscoveryOptions& options)
    : iface_(iface),
      options_(options),
      collector_(iface->schema().ranking_attributes()) {
  trace_.push_back({0, 0});
}

Result<QueryResult> DiscoveryRun::Execute(const Query& q) {
  QueryResult r;
  HDSKY_RETURN_IF_ERROR(Execute(q, &r));
  return r;
}

Status DiscoveryRun::Execute(const Query& q, QueryResult* out) {
  if (options_.interrupt && options_.interrupt()) {
    exhausted_ = true;
    return Status::ResourceExhausted("discovery interrupted");
  }
  if (options_.max_queries > 0 && queries_issued_ >= options_.max_queries) {
    exhausted_ = true;
    return Status::ResourceExhausted("discovery max_queries reached");
  }
  const Status s = iface_->Execute(q, out);
  if (!s.ok()) {
    if (s.IsResourceExhausted()) exhausted_ = true;
    return s;
  }
  ++queries_issued_;
  return s;
}

Query DiscoveryRun::MakeBaseQuery() const {
  if (options_.base_filter.has_value()) return *options_.base_filter;
  return Query(iface_->schema().num_attributes());
}

bool DiscoveryRun::Observe(TupleId id, const Tuple& t) {
  const bool added = collector_.Observe(id, t);
  if (added) RecordProgress();
  return added;
}

bool DiscoveryRun::AddConfirmed(TupleId id, const Tuple& t) {
  const bool added = collector_.AddConfirmed(id, t);
  if (added) RecordProgress();
  return added;
}

void DiscoveryRun::RecordProgress() {
  const ProgressPoint point{queries_issued_, collector_.size()};
  trace_.push_back(point);
  if (options_.on_progress) options_.on_progress(point);
}

void DiscoveryRun::SaveState(std::string* out) const {
  net::Encoder enc(out);
  enc.PutU64(static_cast<uint64_t>(queries_issued_));
  enc.PutU8(exhausted_ ? 1 : 0);
  enc.PutU64(static_cast<uint64_t>(trace_.size()));
  for (const ProgressPoint& p : trace_) {
    enc.PutI64(p.queries_issued);
    enc.PutI64(p.skyline_discovered);
  }
  std::string collector_blob;
  collector_.SaveState(&collector_blob);
  enc.PutString(collector_blob);
}

Status DiscoveryRun::RestoreState(std::string_view blob) {
  if (queries_issued_ != 0 || collector_.size() != 0) {
    return Status::Internal("RestoreState on a DiscoveryRun already in use");
  }
  net::Decoder dec(blob);
  uint64_t queries = 0;
  uint8_t exhausted = 0;
  uint64_t trace_len = 0;
  dec.GetU64(&queries);
  dec.GetU8(&exhausted);
  if (!dec.GetU64(&trace_len) ||
      trace_len * 16 > dec.remaining()) {
    return Status::IOError("truncated discovery-run state");
  }
  ProgressTrace trace;
  trace.reserve(trace_len);
  for (uint64_t i = 0; i < trace_len; ++i) {
    ProgressPoint p;
    dec.GetI64(&p.queries_issued);
    dec.GetI64(&p.skyline_discovered);
    trace.push_back(p);
  }
  std::string collector_blob;
  if (!dec.GetString(&collector_blob) || !dec.exhausted()) {
    return Status::IOError("truncated discovery-run state");
  }
  HDSKY_RETURN_IF_ERROR(collector_.RestoreState(
      collector_blob, iface_->schema().num_attributes()));
  queries_issued_ = static_cast<int64_t>(queries);
  exhausted_ = exhausted != 0;
  // Replace the constructor's initial {0,0} point with the saved trace
  // (which begins with its own {0,0}), keeping resumed traces
  // byte-identical to uninterrupted ones.
  trace_ = std::move(trace);
  return Status::OK();
}

DiscoveryResult DiscoveryRun::Finish() {
  DiscoveryResult result;
  collector_.Finish(&result);
  result.query_cost = queries_issued_;
  result.complete = !exhausted_;
  trace_.push_back({queries_issued_, collector_.size()});
  result.trace = std::move(trace_);
  return result;
}

ResumableDiscovery::ResumableDiscovery(interface::HiddenDatabase* iface,
                                       DiscoveryOptions options)
    : options_(std::move(options)), run_(iface, options_) {}

Status ResumableDiscovery::Continue() {
  run_.ClearExhausted();
  return Traverse();
}

Result<bool> ResumableDiscovery::RestoreResume(
    const std::function<Status(std::string_view)>& decode_frontier) {
  if (!options_.resume_frontier.has_value()) return false;
  if (options_.resume_run_state.has_value()) {
    HDSKY_RETURN_IF_ERROR(run_.RestoreState(*options_.resume_run_state));
  }
  HDSKY_RETURN_IF_ERROR(decode_frontier(*options_.resume_frontier));
  // The blobs are decoded once; the live state is the traversal's own.
  options_.resume_run_state.reset();
  options_.resume_frontier.reset();
  return true;
}

void ResumableDiscovery::CheckpointTick() {
  if (!options_.on_checkpoint) return;
  options_.on_checkpoint(run_,
                         [this](std::string* out) { SaveFrontier(out); });
}

Result<DiscoveryResult> RunToEnd(ResumableDiscovery& discovery) {
  const Status s = discovery.Continue();
  if (!s.ok() && !discovery.run().exhausted()) return s;
  return discovery.run().Finish();
}

}  // namespace core
}  // namespace hdsky
