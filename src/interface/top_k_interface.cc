#include "interface/top_k_interface.h"

#include <functional>
#include <thread>

#include "interface/exec/leaf_walk.h"

namespace hdsky {
namespace interface {

using common::Result;
using common::Status;
using data::AttributeSpec;
using data::InterfaceType;
using data::Table;
using data::TupleId;

Result<std::unique_ptr<TopKInterface>> TopKInterface::Create(
    const Table* table, std::shared_ptr<RankingPolicy> ranking,
    TopKOptions options) {
  if (table == nullptr) {
    return Status::InvalidArgument("table must not be null");
  }
  if (ranking == nullptr) {
    return Status::InvalidArgument("ranking policy must not be null");
  }
  if (options.k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (options.query_budget < 0) {
    return Status::InvalidArgument("query budget must be >= 0");
  }
  HDSKY_RETURN_IF_ERROR(
      ranking->Bind(table, table->schema().ranking_attributes()));
  auto iface = std::unique_ptr<TopKInterface>(
      new TopKInterface(table, std::move(ranking), options));
  const std::vector<TupleId>* order = iface->ranking_->static_order();
  if (order != nullptr) {
    HDSKY_ASSIGN_OR_RETURN(iface->leaves_,
                           data::KdLeaves::Build(*table, *order));
  }
  return iface;
}

Result<std::unique_ptr<TopKInterface>> TopKInterface::CreatePaged(
    const data::PagedTable* paged, TopKOptions options) {
  if (paged == nullptr) {
    return Status::InvalidArgument("paged table must not be null");
  }
  if (options.k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (options.query_budget < 0) {
    return Status::InvalidArgument("query budget must be >= 0");
  }
  return std::unique_ptr<TopKInterface>(new TopKInterface(paged, options));
}

Status ValidateAgainstSchema(const data::Schema& schema, const Query& q) {
  if (q.num_attributes() != schema.num_attributes()) {
    return Status::InvalidArgument(
        "query arity does not match the interface schema");
  }
  for (int a = 0; a < q.num_attributes(); ++a) {
    const Interval& iv = q.interval(a);
    if (!iv.constrained()) continue;
    const AttributeSpec& spec = schema.attribute(a);
    switch (spec.iface) {
      case InterfaceType::kRQ:
        break;  // both ends supported
      case InterfaceType::kSQ:
        // Only "better than v" (an upper bound, since smaller is better)
        // or equality.
        if (iv.has_lower() && !iv.is_point()) {
          return Status::Unsupported(
              "attribute " + spec.name +
              " supports single-ended ranges only (no lower bound)");
        }
        break;
      case InterfaceType::kPQ:
      case InterfaceType::kFilterEquality:
        if (!iv.is_point()) {
          return Status::Unsupported("attribute " + spec.name +
                                     " supports point predicates only");
        }
        break;
    }
  }
  return Status::OK();
}

Status TopKInterface::ValidateQuery(const Query& q) const {
  return ValidateAgainstSchema(schema(), q);
}

bool TopKInterface::OutsideDomain(const Query& q) const {
  const data::Schema& schema = this->schema();
  for (int a = 0; a < q.num_attributes(); ++a) {
    const Interval& iv = q.interval(a);
    if (!iv.constrained()) continue;
    const AttributeSpec& spec = schema.attribute(a);
    if (iv.upper < spec.domain_min || iv.lower > spec.domain_max) {
      return true;
    }
  }
  return false;
}

TopKInterface::StatShard& TopKInterface::LocalShard() {
  // The modulus is a class constant, so the slot survives across
  // interface instances; hashing std::thread::id once per thread keeps
  // it off the per-query hot path.
  thread_local const size_t slot =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      kStatShards;
  return stat_shards_[slot];
}

AccessStats TopKInterface::stats() const {
  AccessStats merged;
  for (const StatShard& s : stat_shards_) {
    merged.queries_issued +=
        s.queries_issued.load(std::memory_order_relaxed);
    merged.tuples_returned +=
        s.tuples_returned.load(std::memory_order_relaxed);
    merged.overflowed_queries +=
        s.overflowed_queries.load(std::memory_order_relaxed);
    merged.empty_queries +=
        s.empty_queries.load(std::memory_order_relaxed);
    merged.rejected_queries +=
        s.rejected_queries.load(std::memory_order_relaxed);
  }
  return merged;
}

void TopKInterface::ResetStats() {
  for (StatShard& s : stat_shards_) {
    s.queries_issued.store(0, std::memory_order_relaxed);
    s.tuples_returned.store(0, std::memory_order_relaxed);
    s.overflowed_queries.store(0, std::memory_order_relaxed);
    s.empty_queries.store(0, std::memory_order_relaxed);
    s.rejected_queries.store(0, std::memory_order_relaxed);
  }
}

int64_t TopKInterface::RemainingBudget() const {
  if (options_.query_budget == 0) return -1;
  return options_.query_budget -
         budget_used_.load(std::memory_order_relaxed);
}

void TopKInterface::SetBudget(int64_t budget) {
  options_.query_budget = budget;
  budget_used_.store(0, std::memory_order_relaxed);
}

Result<QueryResult> TopKInterface::Execute(const Query& q) {
  QueryResult result;
  HDSKY_RETURN_IF_ERROR(Execute(q, &result));
  return result;
}

Status TopKInterface::Execute(const Query& q, QueryResult* out) {
  StatShard& tally = LocalShard();
  const Status legal = ValidateQuery(q);
  if (!legal.ok()) {
    tally.rejected_queries.fetch_add(1, std::memory_order_relaxed);
    return legal;
  }
  // Exact admission under concurrency: optimistically claim a slot, and
  // return it if the budget was already spent (the claim-then-undo pair
  // can transiently overshoot budget_used_ but never admits more than
  // query_budget queries).
  if (options_.query_budget > 0) {
    const int64_t used =
        budget_used_.fetch_add(1, std::memory_order_relaxed);
    if (used >= options_.query_budget) {
      budget_used_.fetch_sub(1, std::memory_order_relaxed);
      return Status::ResourceExhausted("query budget exhausted");
    }
  }
  // Unlimited budgets skip the counter entirely: nothing reads
  // budget_used_ until SetBudget installs a limit, and SetBudget zeroes
  // it then.
  tally.queries_issued.fetch_add(1, std::memory_order_relaxed);

  out->ids.clear();
  out->overflow = false;
  if (q.HasEmptyInterval() || OutsideDomain(q)) {
    tally.empty_queries.fetch_add(1, std::memory_order_relaxed);
    out->tuples.clear();
    return Status::OK();
  }

  if (leaves_ == nullptr && paged_ == nullptr) {
    ScanAndSelect(q, out);
  } else {
    // Compile the conjunction once and walk the k-d leaves best-first
    // by minimum rank. A storage failure (CRC on a page) undoes this
    // query's accounting — it was never answered.
    thread_local std::vector<exec::AttrBound> bounds;
    if (!exec::CollectBounds(q, &bounds)) {
      // Some constrained attribute admits no stored value (e.g. a point
      // predicate at the NULL sentinel): the answer is empty.
      tally.empty_queries.fetch_add(1, std::memory_order_relaxed);
      out->tuples.clear();
      return Status::OK();
    }
    const Status walked =
        paged_ != nullptr
            ? exec::ExecuteTopK(*paged_, bounds, options_.k, out)
            : exec::ExecuteTopK(*leaves_, bounds, options_.k, out);
    if (!walked.ok()) {
      tally.queries_issued.fetch_sub(1, std::memory_order_relaxed);
      if (options_.query_budget > 0) {
        budget_used_.fetch_sub(1, std::memory_order_relaxed);
      }
      return walked;
    }
  }
  tally.tuples_returned.fetch_add(out->size(),
                                  std::memory_order_relaxed);
  if (out->overflow) {
    tally.overflowed_queries.fetch_add(1, std::memory_order_relaxed);
  }
  if (out->empty()) {
    tally.empty_queries.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

void TopKInterface::ScanAndSelect(const Query& q, QueryResult* out) {
  std::vector<TupleId> matches;
  const int64_t n = table_->num_rows();
  for (TupleId row = 0; row < n; ++row) {
    if (q.MatchesRow(*table_, row)) matches.push_back(row);
  }
  out->overflow = static_cast<int>(matches.size()) > options_.k;
  out->ids = ranking_->SelectTopK(matches, options_.k);
  const int m = table_->schema().num_attributes();
  out->tuples.resize(out->ids.size());
  for (size_t i = 0; i < out->ids.size(); ++i) {
    data::Tuple& t = out->tuples[i];
    t.resize(static_cast<size_t>(m));
    for (int a = 0; a < m; ++a) {
      t[static_cast<size_t>(a)] = table_->value(out->ids[i], a);
    }
  }
}

}  // namespace interface
}  // namespace hdsky
