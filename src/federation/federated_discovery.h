// FederatedDiscovery: skyline discovery over the union (or entity-join)
// of K hidden databases, coordinated in deterministic scheduling rounds.
//
// Each round:
//   1. The budget scheduler splits the round's query budget across the
//      backends still exploring (cost-model marginal cost blended with
//      each backend's observed yield; src/federation/budget_scheduler).
//   2. The shared dominance index catches up and freezes: one index for
//      the whole session, grown by the tuples each backend confirmed
//      since the previous barrier, read-only for the round. (Confirmed
//      tuples are the dominance closure of everything observed, so a
//      richer witness pool would not prune a single extra query.)
//   3. Every active backend's traversal (SQ- or RQ-DB-SKY picked per
//      backend interface, a core::ResumableDiscovery kept in memory for
//      the whole session) is Continue()d on the runtime ThreadPool,
//      behind a PruningDatabase that (a) answers queries whose region
//      the frozen index dominates with a free empty result — a point one
//      backend's results dominate is never paid for on another — and
//      (b) pauses the traversal via the anytime ResourceExhausted path
//      once the round allowance is spent. The refused query stays on
//      the frontier and is the first one issued next round, so the round
//      slicing costs zero repeated queries and nothing is encoded or
//      decoded between rounds.
//   4. A barrier folds each backend's round into the per-backend yield
//      statistics; each traversal's collector is its backend's
//      candidate set.
//
// Rounds are barriers, the scheduler is deterministic, and the frozen
// index only changes between rounds, so the result is independent of
// thread interleaving: any --threads value produces the same skyline and
// the same per-backend costs.
//
// A backend that fails mid-run (connection lost, server shedding load
// past the retry budget, crash) is NOT dropped outright: the coordinator
// runs a health state machine per backend — HEALTHY, DEGRADED, DEAD. A
// transient failure (IOError / Unavailable) moves the backend to
// DEGRADED: its traversal stays in memory, stopped at the query that
// failed, with every answer of the torn round kept, and the coordinator
// re-probes it after a deterministic jittered backoff (rounds, not wall
// clock — determinism survives). A successful probe reintegrates the
// backend: its traversal continues at the failed query against the
// CURRENT frozen dominance snapshot, never paying twice for a query, and
// if every backend eventually finishes the result is FULL coverage, not
// partial. Only a permanent error or an
// exhausted probe budget moves a backend to DEAD (dropped, coverage
// flagged partial) — graceful degradation, never a stall.
//
// Durable sessions (on_round_checkpoint / resume_state): the coordinator
// hands a recovery::FederationSessionState snapshot of every round
// barrier to the caller — the only time it encodes a traversal — and
// can be restarted from one, the only time it decodes one. Snapshots are
// taken ONLY at consistent barriers; a round some backend left mid-
// flight (the cooperative interrupt fired inside a driver) ends the run
// without one, so a resumed coordinator re-executes the torn round from
// identical inputs and per-backend journals replay its payments for
// free (docs/federation.md, "Durable federation").
//
// The final union skyline is the global dominance filter + entity merge
// of every candidate (src/federation/entity_merge); docs/federation.md
// proves this is exactly the skyline of the merged datasets even with
// cross-backend pruning on. Join mode additionally mines the pruners'
// observed-tuple pools (every tuple a paid query returned) for entity
// coverage, which saves probe queries. Join mode inner-joins entities on a shared
// key attribute, probing backends that did not surface an entity with
// one equality query each, and reports the skyline of the joined
// componentwise-best vectors (approximate when a probe overflows).

#ifndef HDSKY_FEDERATION_FEDERATED_DISCOVERY_H_
#define HDSKY_FEDERATION_FEDERATED_DISCOVERY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "federation/entity_merge.h"
#include "interface/hidden_database.h"
#include "recovery/federation_state.h"

namespace hdsky {
namespace federation {

/// Health state machine of one backend (see the file comment).
enum class BackendHealth : uint8_t {
  kHealthy = 0,
  /// Failed transiently; the traversal waits in memory at the failed
  /// query (answers before it kept), re-probe scheduled.
  kDegraded = 1,
  /// Permanently dropped (permanent error or probe budget exhausted).
  kDead = 2,
};

const char* BackendHealthName(BackendHealth h);

struct FederationOptions {
  enum class Mode { kUnion, kJoin };
  Mode mode = Mode::kUnion;

  /// Total paid backend queries across the whole federation
  /// (0 = unlimited; backends' own budgets still apply).
  int64_t total_budget = 0;
  /// Paid queries granted per scheduling round (0 = auto: enough for
  /// every backend to make progress, small enough that yield feedback
  /// and fresh prune snapshots matter).
  int64_t round_budget = 0;
  /// Minimum round allowance of every active backend, so a backend the
  /// model mispredicts can still prove it (default 4).
  int64_t min_share = 4;
  /// Worker threads for the per-round backend fan-out (0 = one per
  /// backend, capped by hardware). A backend's traversal may run on a
  /// different worker each round; the round barrier orders them.
  int num_threads = 0;
  /// Hard cap on scheduling rounds (0 = none): a safety net for
  /// misconfigured budgets, not a tuning knob.
  int64_t max_rounds = 0;
  /// Cross-backend pruning through the shared dominance index. On for
  /// union (where it is provably exact); forced off for join, whose
  /// entities need per-backend values even when globally dominated.
  bool cross_prune = true;
  /// Discovery driver: "auto" (rq where every ranking attribute is
  /// two-ended, else sq), "sq", or "rq". Applied per backend.
  std::string algorithm = "auto";
  /// Join mode: attribute (by name, present in every backend's schema)
  /// whose value identifies the same real-world entity across sites.
  std::string join_attr;
  /// Cooperative cancellation, polled between queries and rounds.
  std::function<bool()> interrupt;

  /// Re-probes a DEGRADED backend may fail before it is declared DEAD
  /// (0 restores the pre-health-machine instant-drop behavior: the
  /// first failure is final).
  int64_t max_probe_attempts = 3;
  /// Base backoff, in scheduling rounds, before the first re-probe of a
  /// degraded backend; doubles per failed probe (capped) with a
  /// deterministic per-backend jitter so simultaneous failures do not
  /// re-probe in lockstep.
  int64_t probe_backoff_rounds = 2;
  /// Fired on the coordinator thread just before a DEGRADED backend runs
  /// a re-probe round. hdsky_discover wires this to
  /// JournalingDatabase::ResolvePending: a dangling intent from the
  /// failed attempt is settled under its original wire sequence number
  /// (the server replays or charges exactly once) before the traversal
  /// continues against a newer dominance snapshot, which may prune the
  /// failed query, so the re-probe's first fresh query is never misread
  /// as journal divergence. A
  /// returned error counts as a failed probe (the backend stays
  /// DEGRADED and backs off again) rather than aborting the run.
  std::function<common::Status(size_t backend_index)> on_backend_reprobe;

  /// Durable sessions: invoked at the end of every consistent scheduling
  /// round with the coordinator's barrier state. A returned error aborts
  /// the run (a session that cannot persist must not pretend to be
  /// durable). hdsky_discover wires this to SaveFederationState.
  std::function<common::Status(const recovery::FederationSessionState&)>
      on_round_checkpoint;
  /// Resume from a prior round checkpoint. Validated against the live
  /// backends (mode, count, names, resolved algorithms); a mismatch is
  /// rejected rather than silently diverging. Not owned; must outlive
  /// the call.
  const recovery::FederationSessionState* resume_state = nullptr;
};

/// Per-backend accounting of a federated run.
struct BackendReport {
  std::string name;
  /// Queries the backend actually answered (and charged for).
  int64_t paid_queries = 0;
  /// Queries answered for free from the shared dominance snapshot.
  int64_t pruned_queries = 0;
  /// Tuples this backend's discovery confirmed (before the global merge).
  int64_t confirmed = 0;
  /// Scheduling rounds in which this backend ran.
  int64_t rounds = 0;
  /// The backend finished its traversal (nothing left to explore).
  bool complete = false;
  /// The backend failed and was dropped (error says why).
  bool failed = false;
  std::string error;
  /// Final health-machine position (kDegraded: still in backoff when the
  /// run ended — coverage is partial but the backend was never dropped).
  BackendHealth health = BackendHealth::kHealthy;
  /// Times the backend failed transiently and a later re-probe
  /// reintegrated it.
  int64_t recoveries = 0;
};

struct FederatedResult {
  /// Union mode: the exact skyline of the union of the backends'
  /// datasets, one group per distinct ranking-value combination with
  /// full (backend, id) provenance. Sorted by ranking values.
  std::vector<UnionGroup> skyline;
  /// Join mode: skyline over the joined entities instead.
  std::vector<JoinedEntity> joined;
  /// False when a probe overflowed, so `joined` may miss duplicates of
  /// an entity hidden behind its top-k page (join mode only).
  bool join_exact = true;
  /// Equality probes paid by join mode on top of discovery queries.
  int64_t probe_queries = 0;

  int64_t total_paid = 0;
  int64_t total_pruned = 0;
  int64_t rounds = 0;
  /// Every backend finished its full traversal.
  bool complete = true;
  /// Some backend failed or ran out of its own budget: the skyline is a
  /// correct skyline of everything that WAS explored (anytime), but
  /// tuples only that backend holds may be missing.
  bool partial_coverage = false;
  std::vector<BackendReport> backends;
  /// Canonical ranking attribute names (from backend 0).
  std::vector<std::string> ranking_attr_names;
};

/// Runs federated discovery over `backends` (non-owning; each must stay
/// valid for the duration). `names` labels backends in reports (defaults
/// to "backend-<i>"). Fails fast on incompatible schemas: every backend
/// must rank the same attribute names in the same order.
common::Result<FederatedResult> RunFederatedDiscovery(
    const std::vector<interface::HiddenDatabase*>& backends,
    const FederationOptions& options,
    const std::vector<std::string>& names = {});

}  // namespace federation
}  // namespace hdsky

#endif  // HDSKY_FEDERATION_FEDERATED_DISCOVERY_H_
