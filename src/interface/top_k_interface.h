// The hidden database's web search interface (Section 2.1).
//
// TopKInterface is the ONLY channel between discovery algorithms and the
// data. It
//  * validates each query against the per-attribute predicate capability
//    (SQ / RQ / PQ / filter equality) and rejects unsupported predicates,
//  * evaluates the conjunctive match set,
//  * applies the proprietary (domination-consistent) ranking function and
//    returns at most k tuples,
//  * counts every accepted query — the paper's sole efficiency measure —
//    and can enforce a per-client query budget like the rate limits real
//    sites impose (e.g. Google QPX's 50 free queries/day).
//
// What an algorithm may legitimately know: the schema (attribute names,
// interface types, domains), k, and query answers. The ranking function
// and n stay hidden.
//
// Execution (static-order rankings): Create clusters the rows into the
// leaves of an exact-median k-d tree in memory (data::KdLeaves), the same
// tree a packed file stores on disk, and every query compiles into
// clamped per-attribute bounds and runs the best-first k-d leaf walk
// (interface/exec/leaf_walk.h) over it. CreatePaged runs the same walk
// over a packed file's pages through its buffer pool. A ranking with no
// static order (layered-random, adversarial: the paper's §3.2 average
// and worst cases) scans every row and lets the policy pick the top k.
// See docs/performance.md.

#ifndef HDSKY_INTERFACE_TOP_K_INTERFACE_H_
#define HDSKY_INTERFACE_TOP_K_INTERFACE_H_

#include <atomic>
#include <memory>
#include <vector>

#include "common/status.h"
#include "data/kd_tree.h"
#include "data/paged_table.h"
#include "data/table.h"
#include "interface/hidden_database.h"
#include "interface/query.h"
#include "interface/ranking.h"

namespace hdsky {
namespace interface {

/// Counters over the life of an interface (or since ResetStats).
struct AccessStats {
  int64_t queries_issued = 0;
  int64_t tuples_returned = 0;
  /// Queries whose match set exceeded k.
  int64_t overflowed_queries = 0;
  /// Queries with an empty answer.
  int64_t empty_queries = 0;
  /// Queries rejected for unsupported predicates (not counted as issued).
  int64_t rejected_queries = 0;
};

struct TopKOptions {
  /// Maximum tuples per answer.
  int k = 1;
  /// Total queries allowed; 0 = unlimited. When exhausted, Execute
  /// returns ResourceExhausted — discovery algorithms turn that into an
  /// anytime partial result (Section 7.1).
  int64_t query_budget = 0;
};

/// The simulated hidden web database: table + ranking policy + top-k
/// constraint. One concrete HiddenDatabase; real deployments adapt their
/// HTTP client through CallbackDatabase instead.
///
/// Thread safety: concurrent Execute calls are safe when the ranking
/// policy is stateless after Bind (static_order() != nullptr — true for
/// sum, lexicographic, and layered-random). Accounting and budget
/// enforcement are lock-free and exact under concurrency; execution
/// scratch is thread_local. Stateful rankings (adversarial) need
/// external synchronization; see docs/concurrency.md.
class TopKInterface : public HiddenDatabase {
 public:
  /// Binds `ranking` to the table and, when the ranking has a static
  /// order, builds the in-memory k-d leaves. The table must outlive the
  /// interface.
  static common::Result<std::unique_ptr<TopKInterface>> Create(
      const data::Table* table, std::shared_ptr<RankingPolicy> ranking,
      TopKOptions options);

  /// Out-of-core variant over a paged block file: the rank order is the
  /// one baked into the file at pack time (no ranking policy is bound),
  /// and every query runs the leaf walk over the file's pages, pinning
  /// its working set through the table's buffer pool. Budget
  /// enforcement, per-thread accounting, and validation behave exactly
  /// as in the in-memory interface. The paged table must outlive the
  /// interface.
  static common::Result<std::unique_ptr<TopKInterface>> CreatePaged(
      const data::PagedTable* paged, TopKOptions options);

  /// Executes a conjunctive query. Fails with Unsupported if a predicate
  /// exceeds the attribute's interface capability, ResourceExhausted when
  /// the query budget is spent.
  common::Result<QueryResult> Execute(const Query& q) override;

  /// Allocation-free answer path: after the first few queries on a
  /// thread, answering reuses *out's buffers and the per-thread scratch
  /// end to end, so steady-state execution performs no heap allocation.
  common::Status Execute(const Query& q, QueryResult* out) override;

  /// Checks interface legality without issuing (free of charge; mirrors a
  /// user inspecting the search form).
  common::Status ValidateQuery(const Query& q) const override;

  const data::Schema& schema() const override {
    return paged_ != nullptr ? paged_->schema() : table_->schema();
  }
  int k() const override { return options_.k; }

  /// Snapshot of the counters, merged over the internal per-thread
  /// tally shards. Cheap (a handful of relaxed loads) and safe to call
  /// concurrently with Execute.
  AccessStats stats() const;
  /// Zeroes all tally shards. Requires external synchronization with
  /// concurrent Execute calls (quiesce first).
  void ResetStats();

  /// Remaining query budget; -1 when unlimited. Safe concurrently with
  /// Execute (the value is naturally a momentary snapshot).
  int64_t RemainingBudget() const;
  /// Replaces the budget counting from now (0 = unlimited). Requires
  /// external synchronization with concurrent Execute calls.
  void SetBudget(int64_t budget);

 private:
  TopKInterface(const data::Table* table,
                std::shared_ptr<RankingPolicy> ranking, TopKOptions options)
      : table_(table), ranking_(std::move(ranking)), options_(options) {}
  TopKInterface(const data::PagedTable* paged, TopKOptions options)
      : table_(nullptr), paged_(paged), options_(options) {}

  /// True when some constrained interval lies wholly outside its
  /// attribute's domain — the answer is empty without evaluation.
  bool OutsideDomain(const Query& q) const;

  /// Stateful rankings: scans every row and lets the policy pick.
  void ScanAndSelect(const Query& q, QueryResult* out);

  /// Query accounting is sharded to keep concurrent Execute calls from
  /// bouncing one cache line: each thread lands (by a thread_local-cached
  /// thread-id hash) on one of kStatShards cache-line-aligned tallies,
  /// and stats() merges them on demand. The budget check stays a single
  /// atomic because it must be globally exact.
  static constexpr size_t kStatShards = 8;
  struct alignas(64) StatShard {
    std::atomic<int64_t> queries_issued{0};
    std::atomic<int64_t> tuples_returned{0};
    std::atomic<int64_t> overflowed_queries{0};
    std::atomic<int64_t> empty_queries{0};
    std::atomic<int64_t> rejected_queries{0};
  };
  StatShard& LocalShard();

  const data::Table* table_;
  /// Out-of-core mode (CreatePaged): table_ and ranking_ are null, and
  /// every answer walks the file's leaves in the baked rank order.
  const data::PagedTable* paged_ = nullptr;
  std::shared_ptr<RankingPolicy> ranking_;
  /// In memory under a static-order ranking: the leaves every answer
  /// walks. Null for stateful rankings and out of core.
  std::unique_ptr<data::KdLeaves> leaves_;
  TopKOptions options_;
  StatShard stat_shards_[kStatShards];
  std::atomic<int64_t> budget_used_{0};
};

}  // namespace interface
}  // namespace hdsky

#endif  // HDSKY_INTERFACE_TOP_K_INTERFACE_H_
