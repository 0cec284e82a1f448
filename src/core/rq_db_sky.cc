#include "core/rq_db_sky.h"

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/seen_index.h"
#include "net/wire.h"

namespace hdsky {
namespace core {

using common::Result;
using common::Status;
using data::AttributeSpec;
using data::Schema;
using data::Tuple;
using data::TupleId;
using interface::Query;
using interface::QueryResult;
using interface::HiddenDatabase;

namespace {

// One node of the traversal: the SQ-form query q and its mutually
// exclusive counterpart R(q), both built incrementally along the path.
struct Node {
  Query sq;
  Query rq;
};

bool ChildImpossible(const Query& q, const AttributeSpec& spec, int attr) {
  const interface::Interval& iv = q.interval(attr);
  return iv.empty() || iv.upper < spec.domain_min ||
         iv.lower > spec.domain_max;
}

// Frontier codec for checkpoint/resume: the DFS stack (each node is its
// sq/R(q) query pair), the seen-tuple memo, and the processed-region set,
// tagged 'R' against cross-algorithm blob mixups.
void EncodeRqFrontier(const std::vector<Node>& stack, const SeenIndex& seen,
                      const std::unordered_set<std::string>& processed,
                      std::string* out) {
  net::Encoder enc(out);
  enc.PutU8('R');
  enc.PutU64(stack.size());
  for (const Node& n : stack) {
    net::EncodeQueryBody(n.sq, &enc);
    net::EncodeQueryBody(n.rq, &enc);
  }
  enc.PutU64(static_cast<uint64_t>(seen.size()));
  const int width = seen.num_attributes();
  for (int64_t i = 0; i < seen.size(); ++i) {
    enc.PutI64(seen.id(i));
    enc.PutU32(static_cast<uint32_t>(width));
    for (int a = 0; a < width; ++a) enc.PutI64(seen.values(i)[a]);
  }
  enc.PutU64(processed.size());
  for (const std::string& sig : processed) enc.PutString(sig);
}

// Decodes a frontier blob. The seen memo comes back as its ids and flat
// values, in the order they were seen; an id listed twice is rejected.
Status DecodeRqFrontier(std::string_view blob, int num_attributes,
                        std::vector<Node>* stack,
                        std::vector<TupleId>* seen_ids,
                        std::vector<data::Value>* seen_values,
                        std::unordered_set<std::string>* processed) {
  net::Decoder dec(blob);
  uint8_t tag = 0;
  uint64_t stack_len = 0;
  if (!dec.GetU8(&tag) || tag != 'R' || !dec.GetU64(&stack_len)) {
    return Status::IOError("malformed RQ frontier blob");
  }
  for (uint64_t i = 0; i < stack_len; ++i) {
    Node n;
    if (!net::DecodeQueryBody(&dec, &n.sq) ||
        !net::DecodeQueryBody(&dec, &n.rq)) {
      return Status::IOError("malformed RQ frontier node");
    }
    if (n.sq.num_attributes() != num_attributes ||
        n.rq.num_attributes() != num_attributes) {
      return Status::IOError("RQ frontier node width does not match the "
                             "schema");
    }
    stack->push_back(std::move(n));
  }
  uint64_t seen_len = 0;
  if (!dec.GetU64(&seen_len)) {
    return Status::IOError("malformed RQ frontier blob");
  }
  std::unordered_set<TupleId> distinct;
  for (uint64_t i = 0; i < seen_len; ++i) {
    int64_t id = 0;
    uint32_t width = 0;
    dec.GetI64(&id);
    if (!dec.GetU32(&width) ||
        static_cast<size_t>(width) * 8 > dec.remaining()) {
      return Status::IOError("malformed RQ frontier seen tuple");
    }
    if (width != static_cast<uint32_t>(num_attributes)) {
      return Status::IOError("RQ frontier seen tuple width does not match "
                             "the schema");
    }
    if (!distinct.insert(id).second) {
      return Status::IOError("RQ frontier lists seen tuple " +
                             std::to_string(id) + " twice");
    }
    for (uint32_t a = 0; a < width; ++a) {
      data::Value v = 0;
      dec.GetI64(&v);
      seen_values->push_back(v);
    }
    if (!dec.ok()) return Status::IOError("malformed RQ frontier seen tuple");
    seen_ids->push_back(id);
  }
  uint64_t processed_len = 0;
  if (!dec.GetU64(&processed_len)) {
    return Status::IOError("malformed RQ frontier blob");
  }
  for (uint64_t i = 0; i < processed_len; ++i) {
    std::string sig;
    if (!dec.GetString(&sig)) {
      return Status::IOError("malformed RQ frontier signature");
    }
    processed->insert(std::move(sig));
  }
  if (!dec.exhausted()) {
    return Status::IOError("RQ frontier blob carries trailing bytes");
  }
  return Status::OK();
}

// Depth-first preorder over the query tree via an explicit stack, held
// in memory between Continue() calls.
class RqDbSkyDiscovery : public ResumableDiscovery {
 public:
  RqDbSkyDiscovery(HiddenDatabase* iface, const RqDbSkyOptions& options,
                   std::vector<int> branch_attrs)
      : ResumableDiscovery(iface, options.common),
        schema_(iface->schema()),
        k_(iface->k()),
        skip_impossible_children_(options.skip_impossible_children),
        disable_early_termination_(options.disable_early_termination),
        skip_duplicate_nodes_(options.skip_duplicate_nodes),
        ranking_(std::move(branch_attrs)),
        seen_(schema_.num_attributes(), ranking_) {
    // The pivot test's attributes as positions into the collector's
    // ranking attributes (MakeRqDbSky checked that each is one).
    const std::vector<int>& all = run().collector().ranking_attrs();
    for (const int attr : ranking_) {
      pivot_dims_.push_back(static_cast<int>(
          std::find(all.begin(), all.end(), attr) - all.begin()));
    }
  }

  Status Start() {
    std::vector<TupleId> seen_ids;
    std::vector<data::Value> seen_values;
    HDSKY_ASSIGN_OR_RETURN(
        const bool resumed, RestoreResume([&](std::string_view blob) {
          return DecodeRqFrontier(blob, schema_.num_attributes(), &stack_,
                                  &seen_ids, &seen_values,
                                  &processed_regions_);
        }));
    if (resumed) {
      // Crash-consistent resume: progress, the DFS stack, and the seen
      // memo come from a checkpoint instead of the root. The restored
      // skyline already holds the seen ids' classification.
      for (const TupleId id : seen_ids) run().collector().MarkObserved(id);
      seen_.Assign(std::move(seen_ids), std::move(seen_values));
    } else {
      Node root;
      root.sq = run().MakeBaseQuery();
      root.rq = root.sq;
      stack_.push_back(std::move(root));
    }
    return Status::OK();
  }

  void SaveFrontier(std::string* out) const override {
    EncodeRqFrontier(stack_, seen_, processed_regions_, out);
  }

 protected:
  Status Traverse() override {
    while (!stack_.empty()) {
      // Top of the loop is frontier-consistent: the node about to run is
      // still on the stack.
      CheckpointTick();
      std::string signature;
      if (skip_duplicate_nodes_) {
        signature = stack_.back().sq.Signature();
        if (processed_regions_.count(signature) > 0) {
          stack_.pop_back();  // an identical region's subtree already ran
          continue;
        }
      }
      // Early termination (Algorithm 2): when a seen tuple matches q,
      // issue the mutually exclusive R(q) instead.
      const Node& top = stack_.back();
      const bool plain = disable_early_termination_ || !seen_.AnyMatch(top.sq);
      HDSKY_RETURN_IF_ERROR(run().Execute(plain ? top.sq : top.rq, &answer_));
      // Answered: only now does the node leave the frontier.
      const Node node = std::move(stack_.back());
      stack_.pop_back();
      if (skip_duplicate_nodes_) {
        processed_regions_.insert(std::move(signature));
      }
      const QueryResult& t = answer_;
      if (plain) {
        Remember(t);
        if (t.size() == k_) PushChildren(node, t.tuples[0]);
        continue;
      }
      if (t.empty()) continue;  // subtree holds nothing new: prune
      Remember(t);
      if (t.size() == k_) {
        // Pivot on a confirmed-skyline dominator of T0 when one exists
        // (Algorithm 2 lines 10-12), otherwise on T0 itself.
        const Tuple& t0 = t.tuples[0];
        const int64_t dominator =
            run().collector().FirstDominator(t0, pivot_dims_);
        PushChildren(node, dominator < 0
                               ? t0
                               : run().collector().tuples()[static_cast<
                                     size_t>(dominator)]);
      }
    }
    return Status::OK();
  }

 private:
  // Records every newly returned tuple in the seen memo and the
  // collector; the collector's observed ids are the only id memo.
  void Remember(const QueryResult& t) {
    for (int i = 0; i < t.size(); ++i) {
      const TupleId id = t.ids[static_cast<size_t>(i)];
      if (run().collector().observed(id)) continue;
      const Tuple& tuple = t.tuples[static_cast<size_t>(i)];
      seen_.Insert(id, tuple);
      run().Observe(id, tuple);
    }
  }

  void PushChildren(const Node& node, const Tuple& pivot) {
    // Children are pushed in reverse so the Ai-ascending branch order of
    // the paper is preserved under stack-based preorder. Each child i
    // carries sq = node.sq + (Ai < pivot[Ai]) and rq additionally
    // excludes earlier branches with Aj >= pivot[Aj], j < i.
    std::vector<Node> children;
    children.reserve(ranking_.size());
    Query rq_prefix = node.rq;
    for (size_t i = 0; i < ranking_.size(); ++i) {
      const int attr = ranking_[i];
      Node child;
      child.sq = node.sq;
      child.sq.AddLessThan(attr, pivot[static_cast<size_t>(attr)]);
      child.rq = rq_prefix;
      child.rq.AddLessThan(attr, pivot[static_cast<size_t>(attr)]);
      if (schema_.attribute(attr).supports_lower_bound()) {
        rq_prefix.AddAtLeast(attr, pivot[static_cast<size_t>(attr)]);
      }
      if (skip_impossible_children_ &&
          ChildImpossible(child.sq, schema_.attribute(attr), attr)) {
        continue;
      }
      children.push_back(std::move(child));
    }
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack_.push_back(std::move(*it));
    }
  }

  const Schema& schema_;
  const int k_;
  const bool skip_impossible_children_;
  const bool disable_early_termination_;
  const bool skip_duplicate_nodes_;
  const std::vector<int> ranking_;
  std::vector<int> pivot_dims_;
  std::vector<Node> stack_;
  // Every tuple ever returned, in the order first seen: Algorithm 2
  // line 3's seen-match test and the checkpointed memo.
  SeenIndex seen_;
  std::unordered_set<std::string> processed_regions_;
  // One QueryResult lives across the whole walk: the buffer-reuse
  // Execute overload refills it in place, so the query loop stops
  // allocating once the buffers reach steady-state size.
  QueryResult answer_;
};

}  // namespace

Result<std::unique_ptr<ResumableDiscovery>> MakeRqDbSky(
    HiddenDatabase* iface, const RqDbSkyOptions& options) {
  const Schema& schema = iface->schema();
  std::vector<int> branch_attrs = options.branch_attrs.empty()
                                      ? schema.ranking_attributes()
                                      : options.branch_attrs;
  for (int attr : branch_attrs) {
    if (attr < 0 || attr >= schema.num_attributes() ||
        !schema.attribute(attr).is_ranking()) {
      return Status::InvalidArgument(
          "branch attributes must be ranking attributes");
    }
    if (!schema.attribute(attr).supports_upper_bound()) {
      return Status::Unsupported(
          "RQ-DB-SKY needs range support on every branch attribute; " +
          schema.attribute(attr).name + " is point-only");
    }
    if (options.require_two_ended &&
        !schema.attribute(attr).supports_lower_bound()) {
      return Status::Unsupported(
          "RQ-DB-SKY needs two-ended range support on every ranking "
          "attribute; " +
          schema.attribute(attr).name + " is not RQ");
    }
  }
  if (options.common.base_filter.has_value()) {
    HDSKY_RETURN_IF_ERROR(
        iface->ValidateQuery(*options.common.base_filter));
  }
  auto discovery = std::make_unique<RqDbSkyDiscovery>(
      iface, options, std::move(branch_attrs));
  HDSKY_RETURN_IF_ERROR(discovery->Start());
  return std::unique_ptr<ResumableDiscovery>(std::move(discovery));
}

Result<DiscoveryResult> RqDbSky(HiddenDatabase* iface,
                                const RqDbSkyOptions& options) {
  HDSKY_ASSIGN_OR_RETURN(std::unique_ptr<ResumableDiscovery> discovery,
                         MakeRqDbSky(iface, options));
  return RunToEnd(*discovery);
}

}  // namespace core
}  // namespace hdsky
