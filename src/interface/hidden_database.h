// The abstract hidden-database channel.
//
// Discovery algorithms program against this interface, not against the
// simulator: a HiddenDatabase is anything that can answer conjunctive
// top-k queries — the in-memory TopKInterface used by tests and
// benchmarks, a CallbackDatabase wrapping a real website's HTTP client,
// or any custom adapter. The contract mirrors Section 2.1:
//
//  * Execute returns at most k() tuples, best-ranked first, under a
//    DOMINATION-CONSISTENT proprietary ranking; `overflow` reports
//    whether the answer was truncated.
//  * schema() is public knowledge: attribute names, the SQ/RQ/PQ
//    interface taxonomy, and domains (all visible on a real search form).
//  * Predicates beyond an attribute's taxonomy fail with Unsupported;
//    exhausted rate limits fail with ResourceExhausted (algorithms turn
//    that into an anytime partial result).
//  * Returned tuple ids are opaque listing identifiers, stable across
//    queries; algorithms use them only for deduplication.

#ifndef HDSKY_INTERFACE_HIDDEN_DATABASE_H_
#define HDSKY_INTERFACE_HIDDEN_DATABASE_H_

#include <functional>
#include <vector>

#include "common/status.h"
#include "data/schema.h"
#include "data/value.h"
#include "interface/query.h"

namespace hdsky {
namespace interface {

/// Answer to one query.
struct QueryResult {
  /// Listing ids, best-ranked first; at most k. Opaque identifiers a real
  /// site would show; legitimate for deduplication only.
  std::vector<data::TupleId> ids;
  /// Materialized tuples aligned with `ids`.
  std::vector<data::Tuple> tuples;
  /// True when more than k tuples matched, i.e. the answer was truncated
  /// by the top-k constraint ("the query overflows", Section 2.1).
  bool overflow = false;

  bool empty() const { return ids.empty(); }
  int size() const { return static_cast<int>(ids.size()); }
};

/// Checks `q` against the per-attribute predicate taxonomy of `schema`
/// (SQ: upper bound or equality; RQ: anything; PQ/filter: equality only).
common::Status ValidateAgainstSchema(const data::Schema& schema,
                                     const Query& q);

/// Abstract top-k search channel.
class HiddenDatabase {
 public:
  virtual ~HiddenDatabase() = default;

  /// Executes a conjunctive query. Unsupported predicates and exhausted
  /// budgets surface as the corresponding Status codes.
  virtual common::Result<QueryResult> Execute(const Query& q) = 0;

  /// Buffer-reuse variant: answers into `*out`, recycling its existing
  /// heap allocations (the id array, the tuple array, and each tuple's
  /// value buffer), so a caller that keeps one QueryResult across a
  /// query loop issues queries without allocating in steady state. On a
  /// non-OK status the contents of *out are unspecified. The default
  /// adapts the by-value Execute; engines with allocation-free answer
  /// paths override it.
  virtual common::Status Execute(const Query& q, QueryResult* out) {
    common::Result<QueryResult> r = Execute(q);
    if (!r.ok()) return r.status();
    *out = std::move(r).value();
    return common::Status::OK();
  }

  /// The public search-form description.
  virtual const data::Schema& schema() const = 0;

  /// Page size of the interface.
  virtual int k() const = 0;

  /// Checks interface legality without issuing a query. The default
  /// consults the schema's taxonomy.
  virtual common::Status ValidateQuery(const Query& q) const {
    return ValidateAgainstSchema(schema(), q);
  }
};

/// Adapter for external backends (e.g. a scraper or HTTP API client):
/// the callback receives each query and returns the site's answer.
class CallbackDatabase : public HiddenDatabase {
 public:
  using ExecuteFn =
      std::function<common::Result<QueryResult>(const Query&)>;

  CallbackDatabase(data::Schema schema, int k, ExecuteFn execute)
      : schema_(std::move(schema)), k_(k), execute_(std::move(execute)) {}

  using HiddenDatabase::Execute;
  common::Result<QueryResult> Execute(const Query& q) override {
    HDSKY_RETURN_IF_ERROR(ValidateQuery(q));
    return execute_(q);
  }

  const data::Schema& schema() const override { return schema_; }
  int k() const override { return k_; }

 private:
  data::Schema schema_;
  int k_;
  ExecuteFn execute_;
};

}  // namespace interface
}  // namespace hdsky

#endif  // HDSKY_INTERFACE_HIDDEN_DATABASE_H_
