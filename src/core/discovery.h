// Shared vocabulary of the discovery algorithms: options, results, anytime
// progress traces (Section 7.1), and the SkylineCollector that turns query
// answers into confirmed skyline tuples.
//
// Confirmation logic. For *downward-closed* query protocols (every issued
// query's match set is closed under domination within the space already
// known to be covered — true for SQ-DB-SKY's queries and for RQ-DB-SKY's
// q/R(q) discipline), a returned tuple is on the skyline if and only if no
// previously seen tuple dominates it, and a tuple once confirmed can never
// be invalidated: any dominator would have outranked it in the very answer
// that returned it. Observe() implements that rule. Point-query
// algorithms lack this property (a dominator need not match a point
// query), so they prove skyline membership geometrically and call
// AddConfirmed() instead.
//
// All algorithms assume the paper's general positioning: skyline tuples
// have unique value combinations on ranking attributes. Tuples whose
// ranking values duplicate a discovered skyline tuple are invisible behind
// a top-k interface (Section 2.1); DiscoveryResult reports skylines as
// value-distinct tuples.

#ifndef HDSKY_CORE_DISCOVERY_H_
#define HDSKY_CORE_DISCOVERY_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "interface/top_k_interface.h"
#include "skyline/dominance_index.h"

namespace hdsky {
namespace core {

/// One point of the anytime curve: after `queries_issued` queries,
/// `skyline_discovered` tuples were confirmed (Figures 20-24).
struct ProgressPoint {
  int64_t queries_issued = 0;
  int64_t skyline_discovered = 0;
};

using ProgressTrace = std::vector<ProgressPoint>;

class DiscoveryRun;

/// Fills *out with the algorithm's encoded frontier (queue / stack).
/// Handed to DiscoveryOptions::on_checkpoint lazily so the
/// frontier is only serialized when a checkpoint actually happens.
using FrontierSaver = std::function<void(std::string*)>;

struct DiscoveryOptions {
  /// Conjunctive constraints appended to every query, e.g. equality on
  /// filtering attributes (DepartureCity = "JFK"). Must be legal for the
  /// interface.
  std::optional<interface::Query> base_filter;
  /// Stop after this many queries issued by this run (0 = unlimited).
  /// The interface's own budget is honored as well; either exhaustion
  /// yields a partial anytime result with complete = false.
  int64_t max_queries = 0;
  /// Called whenever a new skyline tuple is confirmed.
  std::function<void(const ProgressPoint&)> on_progress;
  /// Cooperative cancellation, polled before every query. Returning true
  /// makes the run unwind as ResourceExhausted — the anytime partial-
  /// result path — so a SIGINT'd session still checkpoints and reports.
  std::function<bool()> interrupt;
  /// Checkpoint tick, invoked by the resumable drivers (SQ/RQ) at the top
  /// of their node loop, where the traversal state is consistent. The
  /// callee decides whether a checkpoint is actually due; the
  /// FrontierSaver serializes the frontier on demand.
  std::function<void(DiscoveryRun&, const FrontierSaver&)> on_checkpoint;
  /// DiscoveryRun::SaveState blob to restore before the first query: a
  /// federated backend resuming from its round barrier (SQ/RQ).
  std::optional<std::string> resume_run_state;
  /// Matching frontier blob from the same barrier; the driver resumes
  /// its traversal from it instead of the root.
  std::optional<std::string> resume_frontier;
};

struct DiscoveryResult {
  /// Confirmed skyline tuples (ids as reported by the interface).
  std::vector<data::TupleId> skyline_ids;
  /// Materialized tuples aligned with skyline_ids.
  std::vector<data::Tuple> skyline;
  /// Queries issued by this run.
  int64_t query_cost = 0;
  /// False when a budget stopped the run early (the returned skyline is
  /// still a correct subset: the anytime property).
  bool complete = true;
  /// Anytime curve.
  ProgressTrace trace;
};

/// Accumulates query answers into the confirmed skyline. Dominance
/// checks go through an incremental skyline::DominanceIndex instead of a
/// linear scan over every confirmed tuple, so Observe stays sublinear in
/// skyline size (tests/dominance_index_test.cc proves the two agree).
class SkylineCollector {
 public:
  explicit SkylineCollector(std::vector<int> ranking_attrs)
      : ranking_attrs_(std::move(ranking_attrs)), index_(ranking_attrs_) {}

  /// Mode for downward-closed protocols (see file comment): confirms the
  /// tuple iff it is not dominated by a confirmed tuple. Returns true on
  /// a newly confirmed skyline tuple. Value-duplicates of confirmed
  /// tuples are ignored. A tuple's classification is immutable under
  /// the downward-closed rule, so repeat observations of the same id are
  /// memoized (top-k answers re-return popular tuples constantly).
  bool Observe(data::TupleId id, const data::Tuple& t);

  /// Mode for geometric proofs (PQ family): unconditionally records a
  /// tuple the caller has proven to be on the skyline. Returns true when
  /// new.
  bool AddConfirmed(data::TupleId id, const data::Tuple& t);

  /// True iff some confirmed tuple dominates t.
  bool IsDominated(const data::Tuple& t) const;

  /// True iff some confirmed tuple dominates t or equals t on all ranking
  /// attributes.
  bool IsDominatedOrDuplicate(const data::Tuple& t) const;

  /// Index into tuples() of the first confirmed tuple, in confirmation
  /// order, that strictly dominates t over `dims` (positions into
  /// ranking_attrs(), any subset), or -1.
  int64_t FirstDominator(const data::Tuple& t,
                         const std::vector<int>& dims) const {
    return index_.FirstDominator(t, dims);
  }

  /// True once `id` has been classified by Observe or marked observed:
  /// a caller's first-sighting test, so it keeps no id memo of its own.
  bool observed(data::TupleId id) const { return observed_.count(id) > 0; }
  /// Marks `id` classified without classifying it (a restored frontier's
  /// seen ids, whose classification the restored skyline already holds).
  void MarkObserved(data::TupleId id) { observed_.insert(id); }

  int64_t size() const { return static_cast<int64_t>(ids_.size()); }
  const std::vector<data::TupleId>& ids() const { return ids_; }
  const std::vector<data::Tuple>& tuples() const { return tuples_; }
  const std::vector<int>& ranking_attrs() const { return ranking_attrs_; }

  /// Copies the collected skyline into `result` (ids sorted, tuples
  /// aligned).
  void Finish(DiscoveryResult* result) const;

  /// Serializes the confirmed skyline (ids + tuples, insertion order) for
  /// federation's round barriers.
  void SaveState(std::string* out) const;

  /// Rebuilds a collector from SaveState bytes. Only legal on an empty
  /// collector. Restored ids are marked observed, so replayed answers
  /// re-classify without re-confirming. A tuple whose width is not
  /// `num_attributes` (the live schema's) is rejected with IOError.
  common::Status RestoreState(std::string_view blob, int num_attributes);

 private:
  std::vector<int> ranking_attrs_;
  skyline::DominanceIndex index_;
  std::vector<data::TupleId> ids_;
  std::vector<data::Tuple> tuples_;
  std::unordered_set<data::TupleId> id_set_;
  /// Ids already classified by Observe (confirmed or rejected).
  std::unordered_set<data::TupleId> observed_;
};

/// Bookkeeping shared by all algorithm drivers: counts queries, enforces
/// max_queries, records the trace, and funnels answers into a collector.
class DiscoveryRun {
 public:
  DiscoveryRun(interface::HiddenDatabase* iface,
               const DiscoveryOptions& options);

  /// Executes `q` (with the base filter already folded in by the caller
  /// or via MakeBaseQuery). ResourceExhausted marks the run incomplete
  /// and is surfaced so the algorithm can unwind.
  common::Result<interface::QueryResult> Execute(const interface::Query& q);

  /// Buffer-reuse variant (see HiddenDatabase::Execute(q, out)): the
  /// query loops of the discovery algorithms keep one QueryResult alive
  /// across iterations so steady-state querying allocates nothing.
  common::Status Execute(const interface::Query& q,
                         interface::QueryResult* out);

  /// A query constrained only by options.base_filter.
  interface::Query MakeBaseQuery() const;

  /// Observes a returned tuple under the downward-closed rule.
  bool Observe(data::TupleId id, const data::Tuple& t);
  /// Records a geometrically proven skyline tuple.
  bool AddConfirmed(data::TupleId id, const data::Tuple& t);

  SkylineCollector& collector() { return collector_; }
  interface::HiddenDatabase* iface() { return iface_; }
  int64_t queries_issued() const { return queries_issued_; }
  bool exhausted() const { return exhausted_; }
  /// Re-arms a run that stopped on ResourceExhausted, so it may issue
  /// queries again (ResumableDiscovery::Continue).
  void ClearExhausted() { exhausted_ = false; }

  /// Packages the final DiscoveryResult.
  DiscoveryResult Finish();

  /// Serializes progress (query count, trace, confirmed skyline) for a
  /// checkpoint. The trace is saved whole — including the initial {0,0}
  /// point — so a resumed run's final trace is byte-identical to the
  /// uninterrupted run's.
  void SaveState(std::string* out) const;

  /// Restores a SaveState blob. Only legal before the first Execute.
  common::Status RestoreState(std::string_view blob);

 private:
  void RecordProgress();

  interface::HiddenDatabase* iface_;
  const DiscoveryOptions& options_;
  SkylineCollector collector_;
  int64_t queries_issued_ = 0;
  bool exhausted_ = false;
  ProgressTrace trace_;
};

/// A frontier-driven traversal (SQ- or RQ-DB-SKY) held in memory between
/// slices of work, so a caller that runs it in pieces (the federation's
/// scheduling rounds) never encodes or decodes its state in between.
///
/// Invariant: the frontier changes only after an answer arrives. An
/// iteration pops its node, records its signature and remembers its
/// tuples only once its query has been answered. So when a query fails,
/// the state is exactly what an on_checkpoint frontier taken at the top
/// of that iteration describes, and the next Continue() re-issues the
/// failed query.
///
/// Not thread-safe; a caller may hand it from thread to thread between
/// Continue() calls when it orders them (e.g. a thread-pool barrier).
class ResumableDiscovery {
 public:
  virtual ~ResumableDiscovery() = default;
  ResumableDiscovery(const ResumableDiscovery&) = delete;
  ResumableDiscovery& operator=(const ResumableDiscovery&) = delete;

  /// Clears run().exhausted() and runs the traversal until its frontier
  /// drains (OK) or a query fails (that query's status; ResourceExhausted
  /// for a spent budget, max_queries or an interrupt).
  common::Status Continue();

  /// Encodes the frontier with the driver's checkpoint codec: the blob
  /// DiscoveryOptions::resume_frontier takes, next to run().SaveState.
  virtual void SaveFrontier(std::string* out) const = 0;

  DiscoveryRun& run() { return run_; }

 protected:
  ResumableDiscovery(interface::HiddenDatabase* iface,
                     DiscoveryOptions options);

  /// Restores the options' resume_run_state (when set) into run() and
  /// decodes their resume_frontier with `decode_frontier`, then drops
  /// both blobs. True when a frontier was restored; false when the caller
  /// should start from the root.
  common::Result<bool> RestoreResume(
      const std::function<common::Status(std::string_view)>&
          decode_frontier);

  /// on_checkpoint tick for the top of the traversal loop.
  void CheckpointTick();

  /// The traversal loop behind Continue().
  virtual common::Status Traverse() = 0;

 private:
  DiscoveryOptions options_;  // precedes run_, which keeps a reference
  DiscoveryRun run_;
};

/// Body of the single-site entry points: one Continue() to the end. A
/// budget stop yields the anytime partial result (complete = false);
/// any other failed query is the returned error.
common::Result<DiscoveryResult> RunToEnd(ResumableDiscovery& discovery);

}  // namespace core
}  // namespace hdsky

#endif  // HDSKY_CORE_DISCOVERY_H_
