#include "interface/top_k_interface.h"

#include <algorithm>
#include <functional>
#include <thread>

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
  if (options.kd_abort_floor < 0) {
    return Status::InvalidArgument("kd_abort_floor must be >= 0");
  }
  HDSKY_RETURN_IF_ERROR(
      ranking->Bind(table, table->schema().ranking_attributes()));
  auto iface = std::unique_ptr<TopKInterface>(
      new TopKInterface(table, std::move(ranking), options));
  const std::vector<data::TupleId>* order =
      iface->ranking_->static_order();
  if (order != nullptr) {
    iface->rank_of_row_.resize(order->size());
    for (size_t i = 0; i < order->size(); ++i) {
      iface->rank_of_row_[static_cast<size_t>((*order)[i])] =
          static_cast<int64_t>(i);
    }
    // The index pays off only when selective queries would otherwise
    // full-scan a large table.
    if (options.kd_index_threshold >= 0 &&
        table->num_rows() >= options.kd_index_threshold) {
      iface->index_ =
          std::make_unique<KdIndex>(table, iface->rank_of_row_);
    }
    if (options.vectorized_scan) {
      iface->engine_ = std::make_unique<exec::VectorEngine>(*table, *order);
    }
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
  auto iface = std::unique_ptr<TopKInterface>(
      new TopKInterface(paged, options));
  iface->paged_engine_ = std::make_unique<exec::PagedEngine>(paged);
  return iface;
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

double TopKInterface::EstimateMatches(
    const std::vector<exec::AttrBound>& bounds) const {
  double est = static_cast<double>(table_->num_rows());
  const data::Schema& schema = table_->schema();
  for (const exec::AttrBound& b : bounds) {
    const AttributeSpec& spec = schema.attribute(b.attr);
    const double width = static_cast<double>(spec.domain_max) -
                         static_cast<double>(spec.domain_min) + 1.0;
    const double lo =
        std::max(static_cast<double>(b.lo),
                 static_cast<double>(spec.domain_min));
    const double hi =
        std::min(static_cast<double>(b.hi),
                 static_cast<double>(spec.domain_max));
    const double covered = hi - lo + 1.0;
    if (covered <= 0.0) return 0.0;
    est *= covered / width;
  }
  return est;
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
  // out->tuples is NOT cleared here: the answer paths below resize it to
  // the exact answer size, which preserves already-allocated tuple
  // buffers for reuse. `tuples_filled` tracks whether a path materialized
  // tuples itself; the tail materializes from the column store otherwise.
  bool tuples_filled = false;
  const int k = options_.k;
  if (q.HasEmptyInterval() || OutsideDomain(q)) {
    tally.empty_queries.fetch_add(1, std::memory_order_relaxed);
    out->tuples.clear();
    return Status::OK();
  }

  if (paged_engine_ != nullptr) {
    // Out-of-core path: compile bounds and walk the file's k-d directory
    // best-first by minimum rank. A storage failure (CRC on a page)
    // undoes this query's accounting — it was never answered.
    thread_local std::vector<exec::AttrBound> paged_bounds;
    if (!exec::CollectBounds(q, &paged_bounds)) {
      tally.empty_queries.fetch_add(1, std::memory_order_relaxed);
      out->tuples.clear();
      return Status::OK();
    }
    const Status stored = paged_engine_->ExecuteTopK(paged_bounds, k, out);
    if (!stored.ok()) {
      tally.queries_issued.fetch_sub(1, std::memory_order_relaxed);
      if (options_.query_budget > 0) {
        budget_used_.fetch_sub(1, std::memory_order_relaxed);
      }
      return stored;
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

  const std::vector<TupleId>* order = ranking_->static_order();
  bool answered = false;
  if (order != nullptr) {
    // Compile the conjunction once; the bounds feed the index walk, the
    // vectorized scan, and the selectivity estimate alike.
    thread_local std::vector<exec::AttrBound> bounds;
    thread_local std::vector<TupleId> kd_matches;
    if (!exec::CollectBounds(q, &bounds)) {
      // Some constrained attribute admits no stored value (e.g. a point
      // predicate at the NULL sentinel): the answer is empty.
      answered = true;
    }
    if (!answered && index_ != nullptr) {
      // Selective-query path: enumerate matches through the k-d index; if
      // the match set stays small, rank-sort it locally. Broad queries —
      // where the walk would only abort at the threshold — skip straight
      // to the rank-order scan, which is fast exactly for them. The
      // domain-uniformity estimate only picks the path; both paths are
      // exact, so a wrong guess costs time, never correctness.
      const int64_t threshold = std::max<int64_t>(
          2 * static_cast<int64_t>(k) + 2, options_.kd_abort_floor);
      const bool likely_selective =
          engine_ == nullptr ||
          EstimateMatches(bounds) <=
              4.0 * static_cast<double>(threshold);
      if (likely_selective) {
        thread_local std::vector<data::Value> kd_vals;
        thread_local std::vector<int64_t> kd_ranks;
        thread_local std::vector<int32_t> kd_idx;
        kd_matches.clear();
        kd_vals.clear();
        kd_ranks.clear();
        if (index_->RetrieveMatches(bounds, threshold, &kd_matches,
                                    &kd_vals, &kd_ranks)) {
          // Sort a permutation rather than the matches so the leaf-local
          // value copies stay aligned; the sort keys off the small
          // contiguous rank copy-out, and tuples materialize from the
          // leaf-local value copies — neither step gathers from an
          // n-sized table.
          const int m = table_->schema().num_attributes();
          kd_idx.resize(kd_matches.size());
          for (size_t i = 0; i < kd_idx.size(); ++i) {
            kd_idx[i] = static_cast<int32_t>(i);
          }
          std::sort(kd_idx.begin(), kd_idx.end(),
                    [](int32_t a, int32_t b) {
                      return kd_ranks[static_cast<size_t>(a)] <
                             kd_ranks[static_cast<size_t>(b)];
                    });
          out->overflow = static_cast<int>(kd_matches.size()) > k;
          const size_t take =
              std::min(kd_matches.size(), static_cast<size_t>(k));
          out->ids.resize(take);
          out->tuples.resize(take);
          for (size_t i = 0; i < take; ++i) {
            const size_t s = static_cast<size_t>(kd_idx[i]);
            out->ids[i] = kd_matches[s];
            data::Tuple& t = out->tuples[i];
            t.resize(static_cast<size_t>(m));
            const data::Value* src =
                kd_vals.data() + s * static_cast<size_t>(m);
            for (int a = 0; a < m; ++a) t[static_cast<size_t>(a)] = src[a];
          }
          tuples_filled = true;
          answered = true;
        }
      }
    }
    if (!answered && engine_ != nullptr) {
      // Column-at-a-time rank-order scan: zone-map block skipping,
      // selection-vector kernels, early exit at the (k+1)-th match.
      engine_->ExecuteTopK(bounds, k, out);
      tuples_filled = true;
      answered = true;
    }
    if (!answered) {
      // Naive fallback: scan in global rank order, stop at the (k+1)-th
      // match — the extra match only feeds the overflow flag.
      for (TupleId row : *order) {
        if (!q.MatchesRow(*table_, row)) continue;
        if (out->size() == k) {
          out->overflow = true;
          break;
        }
        out->ids.push_back(row);
      }
      answered = true;
    }
  }
  if (!answered) {
    std::vector<TupleId> matches;
    const int64_t n = table_->num_rows();
    for (TupleId row = 0; row < n; ++row) {
      if (q.MatchesRow(*table_, row)) matches.push_back(row);
    }
    out->overflow = static_cast<int>(matches.size()) > k;
    out->ids = ranking_->SelectTopK(matches, k);
  }

  if (!tuples_filled) {
    // Materialize straight from the columns (the index and engine paths
    // already filled tuples from their own columnar views).
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

}  // namespace interface
}  // namespace hdsky
