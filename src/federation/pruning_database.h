// PruningDatabase: the cross-backend pruning decorator of the federation
// layer. Wraps one backend (local TopKInterface or RemoteHiddenDatabase)
// and consults a frozen snapshot of the federation's shared dominance
// index before letting a query touch the backend:
//
//  * If the query region's best corner — the tuple assembled from each
//    ranking attribute's lower bound, clamped to the attribute domain —
//    is dominated-or-equaled by a confirmed tuple of ANY backend, every
//    tuple the query could return is dominated by (or a value duplicate
//    of) that tuple, so the region cannot contribute to the union
//    skyline. The decorator answers an empty, non-overflowing result
//    without paying the backend: both SQ-DB-SKY (no overflow => no
//    children) and RQ-DB-SKY (empty R(q) => prune) treat that answer as
//    "this subtree is done". A point one backend's results dominate is
//    never paid for on another. (Confirmed tuples are the strongest
//    witnesses available: they are the dominance closure of everything
//    observed, so indexing raw observed tuples too prunes nothing more.)
//
//    Soundness: suppressing a region this way can make a *local*
//    confirmation wrong (a would-be dominator hid in the pruned region),
//    but any such dominator is itself dominated by the pruning witness,
//    which is always a candidate of the final cross-backend merge — the
//    global dominance filter removes the wrong confirmation, so the
//    merged union skyline stays exact (see docs/federation.md).
//
//  * Each scheduling round grants the backend a query allowance. A
//    forwarded (paid) query spends one unit; pruned queries are free.
//    When the allowance is spent, Execute fails with ResourceExhausted —
//    the traversal stops with the refused query still on its frontier,
//    and the coordinator continues it there next round.
//
// Thread safety: NOT thread-safe; the coordinator touches each backend
// from one task per round. The frozen index is shared read-only across
// backends (DominanceIndex const queries are safe concurrently).

#ifndef HDSKY_FEDERATION_PRUNING_DATABASE_H_
#define HDSKY_FEDERATION_PRUNING_DATABASE_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "interface/hidden_database.h"
#include "skyline/dominance_index.h"

namespace hdsky {
namespace federation {

class PruningDatabase : public interface::HiddenDatabase {
 public:
  explicit PruningDatabase(interface::HiddenDatabase* backend);

  /// Arms a scheduling round: `allowance` paid queries may be forwarded
  /// (< 0 = unlimited); `frozen` is the round's shared dominance snapshot
  /// (nullptr disables cross-backend pruning). Clears the round flags.
  void StartRound(int64_t allowance, const skyline::DominanceIndex* frozen);

  /// Coordinator resume (recovery/federation_state.h): restores the
  /// cumulative accounting a previous process checkpointed at a round
  /// barrier. Only legal before the first StartRound.
  void RestoreAccounting(int64_t paid, int64_t pruned, bool backend_exhausted);
  /// Restores the observed-tuple pool (ids and tuples parallel, already
  /// deduplicated by the run that saved them).
  void RestoreObserved(const std::vector<data::TupleId>& ids,
                       const std::vector<data::Tuple>& tuples);

  /// Paid queries remaining in this round; -1 = unlimited.
  int64_t remaining() const { return remaining_; }
  /// True once an Execute was refused because the round allowance ran
  /// dry — the run paused; resume it next round.
  bool round_paused() const { return round_paused_; }
  /// True once the backend itself reported ResourceExhausted (its budget
  /// is spent for good, not just this round's slice).
  bool backend_exhausted() const { return backend_exhausted_; }

  /// Cumulative counters across all rounds.
  int64_t paid() const { return paid_; }
  int64_t pruned() const { return pruned_; }

  /// Every distinct tuple the backend has returned, in first-seen order
  /// (deduplicated by listing id). Real dataset tuples even when never
  /// locally confirmed; join mode mines them for entity coverage so
  /// fewer cross-backend probes are needed.
  const std::vector<data::TupleId>& observed_ids() const {
    return observed_ids_;
  }
  const std::vector<data::Tuple>& observed_tuples() const {
    return observed_tuples_;
  }

  using interface::HiddenDatabase::Execute;
  common::Result<interface::QueryResult> Execute(
      const interface::Query& q) override;

  const data::Schema& schema() const override { return backend_->schema(); }
  int k() const override { return backend_->k(); }

 private:
  /// True iff the frozen index proves q's region sterile (see above).
  bool RegionPruned(const interface::Query& q) const;

  interface::HiddenDatabase* backend_;
  const skyline::DominanceIndex* frozen_ = nullptr;
  int64_t remaining_ = -1;
  bool round_paused_ = false;
  bool backend_exhausted_ = false;
  int64_t paid_ = 0;
  int64_t pruned_ = 0;
  std::vector<data::TupleId> observed_ids_;
  std::vector<data::Tuple> observed_tuples_;
  std::unordered_set<data::TupleId> observed_id_set_;
  /// Scratch for the region corner; reused so pruning allocates nothing.
  mutable data::Tuple corner_;
};

}  // namespace federation
}  // namespace hdsky

#endif  // HDSKY_FEDERATION_PRUNING_DATABASE_H_
