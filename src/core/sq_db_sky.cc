#include "core/sq_db_sky.h"

#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "net/wire.h"

namespace hdsky {
namespace core {

using common::Result;
using common::Status;
using data::AttributeSpec;
using data::Schema;
using interface::Query;
using interface::QueryResult;
using interface::HiddenDatabase;

namespace {

// True when the child predicate Ai < v can never match a domain value.
bool ChildImpossible(const Query& q, const AttributeSpec& spec, int attr) {
  const interface::Interval& iv = q.interval(attr);
  return iv.empty() || iv.upper < spec.domain_min ||
         iv.lower > spec.domain_max;
}

// Frontier codec for checkpoint/resume: the BFS queue plus the
// processed-region memo, tagged 'S' so a blob saved by a different
// algorithm is rejected instead of misread.
void EncodeSqFrontier(const std::deque<Query>& queue,
                      const std::unordered_set<std::string>& processed,
                      std::string* out) {
  net::Encoder enc(out);
  enc.PutU8('S');
  enc.PutU64(queue.size());
  for (const Query& q : queue) net::EncodeQueryBody(q, &enc);
  enc.PutU64(processed.size());
  for (const std::string& sig : processed) enc.PutString(sig);
}

Status DecodeSqFrontier(std::string_view blob, int num_attributes,
                        std::deque<Query>* queue,
                        std::unordered_set<std::string>* processed) {
  net::Decoder dec(blob);
  uint8_t tag = 0;
  uint64_t queue_len = 0;
  if (!dec.GetU8(&tag) || tag != 'S' || !dec.GetU64(&queue_len)) {
    return Status::IOError("malformed SQ frontier blob");
  }
  for (uint64_t i = 0; i < queue_len; ++i) {
    Query q;
    if (!net::DecodeQueryBody(&dec, &q)) {
      return Status::IOError("malformed SQ frontier query");
    }
    if (q.num_attributes() != num_attributes) {
      return Status::IOError("SQ frontier query width does not match the "
                             "schema");
    }
    queue->push_back(std::move(q));
  }
  uint64_t processed_len = 0;
  if (!dec.GetU64(&processed_len)) {
    return Status::IOError("malformed SQ frontier blob");
  }
  for (uint64_t i = 0; i < processed_len; ++i) {
    std::string sig;
    if (!dec.GetString(&sig)) {
      return Status::IOError("malformed SQ frontier signature");
    }
    processed->insert(std::move(sig));
  }
  if (!dec.exhausted()) {
    return Status::IOError("SQ frontier blob carries trailing bytes");
  }
  return Status::OK();
}

// The breadth-first drain of the query tree, held in memory between
// Continue() calls.
class SqDbSkyDiscovery : public ResumableDiscovery {
 public:
  SqDbSkyDiscovery(HiddenDatabase* iface, const SqDbSkyOptions& options)
      : ResumableDiscovery(iface, options.common),
        schema_(iface->schema()),
        k_(iface->k()),
        skip_impossible_children_(options.skip_impossible_children),
        skip_duplicate_nodes_(options.skip_duplicate_nodes) {}

  Status Start() {
    HDSKY_ASSIGN_OR_RETURN(
        const bool resumed, RestoreResume([this](std::string_view blob) {
          return DecodeSqFrontier(blob, schema_.num_attributes(), &queue_,
                                  &processed_regions_);
        }));
    // Crash-consistent resume continues the checkpointed frontier
    // (docs/robustness.md); a fresh run starts at the root.
    if (!resumed) queue_.push_back(run().MakeBaseQuery());
    return Status::OK();
  }

  void SaveFrontier(std::string* out) const override {
    EncodeSqFrontier(queue_, processed_regions_, out);
  }

 protected:
  Status Traverse() override {
    while (!queue_.empty()) {
      // Top of the loop is frontier-consistent: every answer funneled
      // into the collector came from a node no longer in the queue.
      CheckpointTick();
      std::string signature;
      if (skip_duplicate_nodes_) {
        signature = queue_.front().Signature();
        if (processed_regions_.count(signature) > 0) {
          queue_.pop_front();  // an identical region's subtree already ran
          continue;
        }
      }
      HDSKY_RETURN_IF_ERROR(run().Execute(queue_.front(), &answer_));
      // Answered: only now does the node leave the frontier.
      const Query q = std::move(queue_.front());
      queue_.pop_front();
      if (skip_duplicate_nodes_) {
        processed_regions_.insert(std::move(signature));
      }
      const QueryResult& t = answer_;
      // Every returned tuple not dominated by anything seen is a skyline
      // tuple (downward-closed query space; see core/discovery.h).
      for (int i = 0; i < t.size(); ++i) {
        run().Observe(t.ids[static_cast<size_t>(i)],
                      t.tuples[static_cast<size_t>(i)]);
      }
      if (t.size() == k_) {
        // The paper's overflow test: a full page spawns one child per
        // ranking attribute, pivoted on the top-ranked tuple.
        const data::Tuple& pivot = t.tuples[0];
        for (int attr : schema_.ranking_attributes()) {
          Query child = q;
          child.AddLessThan(attr, pivot[static_cast<size_t>(attr)]);
          if (skip_impossible_children_ &&
              ChildImpossible(child, schema_.attribute(attr), attr)) {
            continue;
          }
          queue_.push_back(std::move(child));
        }
      }
    }
    return Status::OK();
  }

 private:
  const Schema& schema_;
  const int k_;
  const bool skip_impossible_children_;
  const bool skip_duplicate_nodes_;
  std::deque<Query> queue_;
  std::unordered_set<std::string> processed_regions_;
  // One QueryResult lives across the whole traversal; the buffer-reuse
  // Execute overload refills it in place each iteration.
  QueryResult answer_;
};

}  // namespace

Result<std::unique_ptr<ResumableDiscovery>> MakeSqDbSky(
    HiddenDatabase* iface, const SqDbSkyOptions& options) {
  const Schema& schema = iface->schema();
  for (int attr : schema.ranking_attributes()) {
    if (!schema.attribute(attr).supports_upper_bound()) {
      return Status::Unsupported(
          "SQ-DB-SKY needs an upper-bound (SQ/RQ) predicate on every "
          "ranking attribute; " +
          schema.attribute(attr).name + " is point-only");
    }
  }
  if (options.common.base_filter.has_value()) {
    HDSKY_RETURN_IF_ERROR(
        iface->ValidateQuery(*options.common.base_filter));
  }
  auto discovery = std::make_unique<SqDbSkyDiscovery>(iface, options);
  HDSKY_RETURN_IF_ERROR(discovery->Start());
  return std::unique_ptr<ResumableDiscovery>(std::move(discovery));
}

Result<DiscoveryResult> SqDbSky(HiddenDatabase* iface,
                                const SqDbSkyOptions& options) {
  HDSKY_ASSIGN_OR_RETURN(std::unique_ptr<ResumableDiscovery> discovery,
                         MakeSqDbSky(iface, options));
  return RunToEnd(*discovery);
}

}  // namespace core
}  // namespace hdsky
