#include "federation/federated_discovery.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "core/discovery.h"
#include "core/rq_db_sky.h"
#include "core/sq_db_sky.h"
#include "federation/budget_scheduler.h"
#include "federation/pruning_database.h"
#include "runtime/thread_pool.h"
#include "skyline/dominance_index.h"

namespace hdsky {
namespace federation {

using common::Result;
using common::Status;

namespace {

/// Coordinator-side state of one backend, touched by at most one worker
/// task per round (the round barrier is the synchronization point).
struct BackendState {
  interface::HiddenDatabase* backend = nullptr;
  std::unique_ptr<PruningDatabase> pruner;
  std::string name;
  std::string algorithm;  // "sq" or "rq", fixed for the whole run
  /// Backend-local ranking attribute indices in canonical order.
  std::vector<int> ranking_attrs;

  /// The backend's traversal, live for the whole session: every round
  /// Continue()s it behind the pruner. Its collector holds the backend's
  /// confirmed candidates.
  std::unique_ptr<core::ResumableDiscovery> discovery;
  /// Collector tuples already inserted into the shared frozen index.
  size_t indexed = 0;

  int64_t prev_confirmed = 0;
  int64_t prev_paid = 0;
  int64_t last_round_paid = 0;
  int64_t last_round_new = 0;
  int64_t rounds = 0;
  bool active = true;
  bool complete = false;
  bool failed = false;
  std::string error;

  /// Health state machine (HEALTHY -> DEGRADED -> DEAD, with DEGRADED ->
  /// HEALTHY on a successful re-probe). A degraded backend keeps its
  /// traversal in memory and waits out a deterministic round-count
  /// backoff.
  BackendHealth health = BackendHealth::kHealthy;
  int64_t probe_attempts = 0;
  int64_t next_probe_round = 0;
  int64_t recoveries = 0;
  /// Scheduled into the current round (set per round on the coordinator
  /// thread before any task is submitted).
  bool participates = false;

  /// Written by the round's worker task, read after the barrier.
  bool ran_this_round = false;
  /// The traversal was continued this round (false when a re-probe
  /// callback failed first).
  bool continued = false;
  Status round_status;

  const core::SkylineCollector& confirmed() const {
    return discovery->run().collector();
  }
};

/// Picks the discovery driver a backend's interface taxonomy supports.
Status PickAlgorithm(const data::Schema& schema, const std::string& requested,
                     std::string* out) {
  bool all_two_ended = true;
  bool all_upper = true;
  for (const int attr : schema.ranking_attributes()) {
    const data::AttributeSpec& spec = schema.attribute(attr);
    all_two_ended &= spec.supports_lower_bound() && spec.supports_upper_bound();
    all_upper &= spec.supports_upper_bound();
  }
  if (requested == "rq" || (requested == "auto" && all_two_ended)) {
    if (!all_two_ended) {
      return Status::Unsupported(
          "rq federation needs two-ended ranges on every ranking "
          "attribute");
    }
    *out = "rq";
    return Status::OK();
  }
  if (requested == "sq" || requested == "auto") {
    if (!all_upper) {
      return Status::Unsupported(
          "sq federation needs an upper-bound predicate on every ranking "
          "attribute (point-query-only backends are not federable)");
    }
    *out = "sq";
    return Status::OK();
  }
  return Status::InvalidArgument("unknown federation algorithm '" +
                                 requested + "' (auto | sq | rq)");
}

/// Builds the backend's traversal behind its pruner: from the root, or
/// from a round checkpoint's frontier. The only place a federated run
/// decodes driver state.
Status StartDiscovery(BackendState* st, const FederationOptions& options,
                      const recovery::FederatedBackendState* resume) {
  core::DiscoveryOptions opts;
  opts.interrupt = options.interrupt;
  if (resume != nullptr && resume->has_resume) {
    opts.resume_run_state = resume->run_state;
    opts.resume_frontier = resume->frontier;
  }
  if (st->algorithm == "rq") {
    core::RqDbSkyOptions o;
    o.common = std::move(opts);
    HDSKY_ASSIGN_OR_RETURN(st->discovery,
                           core::MakeRqDbSky(st->pruner.get(), o));
  } else {
    core::SqDbSkyOptions o;
    o.common = std::move(opts);
    HDSKY_ASSIGN_OR_RETURN(st->discovery,
                           core::MakeSqDbSky(st->pruner.get(), o));
  }
  return Status::OK();
}

data::Tuple Project(const data::Tuple& t, const std::vector<int>& attrs) {
  data::Tuple out;
  out.reserve(attrs.size());
  for (const int a : attrs) out.push_back(t[static_cast<size_t>(a)]);
  return out;
}

const char* ModeName(FederationOptions::Mode mode) {
  return mode == FederationOptions::Mode::kJoin ? "join" : "union";
}

/// Rounds to wait before re-probing `backend` after its `attempt`-th
/// consecutive failure: exponential in the attempt (capped), plus a
/// deterministic per-(backend, attempt) jitter so simultaneous failures
/// do not re-probe in lockstep. No wall clock, no shared RNG — the
/// schedule replays identically on resume.
int64_t ProbeDelayRounds(const FederationOptions& options, size_t backend,
                         int64_t attempt) {
  int64_t base = std::max<int64_t>(1, options.probe_backoff_rounds);
  for (int64_t i = 1; i < attempt && base < 16; ++i) base *= 2;
  base = std::min<int64_t>(base, 16);
  const uint64_t h = (static_cast<uint64_t>(backend) * 1000003ull +
                      static_cast<uint64_t>(attempt)) *
                     2654435761ull;
  return base + static_cast<int64_t>(h % static_cast<uint64_t>(base));
}

/// The coordinator's barrier state, exactly as the resume path consumes
/// it. Called only between rounds, where every persisted value is
/// consistent with every backend journal; the only place a federated run
/// encodes driver state. A backend that will run again persists its live
/// traversal; a finished one only its candidates.
recovery::FederationSessionState BuildCheckpoint(
    const FederationOptions& options, const std::vector<BackendState>& states,
    int64_t rounds, int64_t total_remaining) {
  recovery::FederationSessionState s;
  s.mode = ModeName(options.mode);
  s.algorithm = options.algorithm;
  s.rounds = rounds;
  s.total_remaining = total_remaining;
  s.backends.reserve(states.size());
  for (const BackendState& st : states) {
    recovery::FederatedBackendState b;
    b.name = st.name;
    b.algorithm = st.algorithm;
    b.has_resume = st.active;
    if (st.active) {
      st.discovery->run().SaveState(&b.run_state);
      st.discovery->SaveFrontier(&b.frontier);
    }
    core::DiscoveryResult cands;  // id-sorted, tuples aligned
    st.confirmed().Finish(&cands);
    b.cand_ids = std::move(cands.skyline_ids);
    b.cand_tuples = std::move(cands.skyline);
    b.prev_confirmed = st.prev_confirmed;
    b.prev_paid = st.prev_paid;
    b.last_round_paid = st.last_round_paid;
    b.last_round_new = st.last_round_new;
    b.rounds = st.rounds;
    b.paid = st.pruner->paid();
    b.pruned = st.pruner->pruned();
    b.health = static_cast<uint8_t>(st.health);
    b.probe_attempts = st.probe_attempts;
    b.next_probe_round = st.next_probe_round;
    b.recoveries = st.recoveries;
    b.complete = st.complete;
    b.failed = st.failed;
    b.backend_exhausted = st.pruner->backend_exhausted();
    b.error = st.error;
    b.observed_ids = st.pruner->observed_ids();
    b.observed_tuples = st.pruner->observed_tuples();
    s.backends.push_back(std::move(b));
  }
  return s;
}

/// Rehydrates the coordinator from a round checkpoint, validating that
/// the live federation matches the one that saved it, and starts every
/// backend's traversal from its persisted frontier.
Status RestoreFederation(const recovery::FederationSessionState& rs,
                         const FederationOptions& options,
                         std::vector<BackendState>* states, int64_t* rounds,
                         int64_t* total_remaining) {
  if (rs.mode != ModeName(options.mode)) {
    return Status::InvalidArgument(
        "resumed federation was started as --federate " + rs.mode +
        "; restart with the original mode or a fresh --journal directory");
  }
  if (rs.backends.size() != states->size()) {
    return Status::InvalidArgument(
        "resumed federation had " + std::to_string(rs.backends.size()) +
        " backends, this run connects " + std::to_string(states->size()));
  }
  for (size_t i = 0; i < states->size(); ++i) {
    BackendState& st = (*states)[i];
    const recovery::FederatedBackendState& b = rs.backends[i];
    if (b.name != st.name) {
      return Status::InvalidArgument(
          "resumed federation backend " + std::to_string(i) + " was '" +
          b.name + "', this run connects '" + st.name +
          "' (the --connect list must not change across a resume)");
    }
    if (b.algorithm != st.algorithm) {
      return Status::InvalidArgument(
          st.name + ": journaled session ran algorithm '" + b.algorithm +
          "' but this run resolved '" + st.algorithm +
          "'; resuming would diverge from the journal");
    }
    const size_t width =
        static_cast<size_t>(st.backend->schema().num_attributes());
    for (const auto* pool : {&b.cand_tuples, &b.observed_tuples}) {
      for (const data::Tuple& t : *pool) {
        if (t.size() != width) {
          return Status::IOError(st.name +
                                 ": federation state tuple width does not "
                                 "match the backend schema");
        }
      }
    }
    if (b.cand_ids.size() != b.cand_tuples.size()) {
      return Status::IOError(st.name +
                             ": federation state candidate ids and tuples "
                             "differ in count");
    }
    st.prev_confirmed = b.prev_confirmed;
    st.prev_paid = b.prev_paid;
    st.last_round_paid = b.last_round_paid;
    st.last_round_new = b.last_round_new;
    st.rounds = b.rounds;
    st.health = static_cast<BackendHealth>(b.health);
    st.probe_attempts = b.probe_attempts;
    st.next_probe_round = b.next_probe_round;
    st.recoveries = b.recoveries;
    st.complete = b.complete;
    st.failed = b.failed;
    st.error = b.error;
    // Active is derived, not stored: anything not terminally finished
    // (including a degraded backend mid-backoff) picks up where the
    // previous process stopped.
    st.active = !b.complete && !b.failed && !b.backend_exhausted;
    st.pruner->RestoreAccounting(b.paid, b.pruned, b.backend_exhausted);
    st.pruner->RestoreObserved(b.observed_ids, b.observed_tuples);
    HDSKY_RETURN_IF_ERROR(
        StartDiscovery(&st, options, st.active ? &b : nullptr));
    // The candidates are the backend's confirmed set at the barrier. A
    // live traversal's restored collector already holds every one of
    // them (AddConfirmed ignores known ids); a finished backend's
    // traversal never runs again and only carries them to the merge.
    core::SkylineCollector& collector = st.discovery->run().collector();
    for (size_t j = 0; j < b.cand_ids.size(); ++j) {
      collector.AddConfirmed(b.cand_ids[j], b.cand_tuples[j]);
    }
  }
  *rounds = rs.rounds;
  if (options.total_budget > 0) *total_remaining = rs.total_remaining;
  return Status::OK();
}

/// Join mode: collapse observed tuples to per-backend entity observations,
/// probe backends that never surfaced a key other backends did (one
/// equality query each), inner-join, and return the joined skyline.
Status JoinPhase(std::vector<BackendState>& states,
                 const std::vector<int>& join_attr_idx,
                 FederatedResult* out) {
  const int num_backends = static_cast<int>(states.size());
  std::vector<std::vector<EntityObservation>> obs(states.size());
  std::map<data::Value, std::vector<char>> seen_by;  // key -> backend bitmap
  for (size_t i = 0; i < states.size(); ++i) {
    const int jidx = join_attr_idx[i];
    // The full observed pool, not just confirmed tuples: every returned
    // tuple carries a real (key, ranking-vector) observation, so using
    // all of them widens entity coverage and saves probes.
    for (const data::Tuple& t : states[i].pruner->observed_tuples()) {
      const data::Value key = t[static_cast<size_t>(jidx)];
      obs[i].push_back({key, Project(t, states[i].ranking_attrs)});
      auto& bitmap = seen_by[key];
      if (bitmap.empty()) bitmap.assign(states.size(), 0);
      bitmap[i] = 1;
    }
  }
  // Probes run in key order on the coordinator thread: deterministic,
  // and each failed backend is simply not probed (its entities cannot
  // join anyway — inner-join semantics).
  for (const auto& [key, bitmap] : seen_by) {
    for (size_t i = 0; i < states.size(); ++i) {
      if (bitmap[i] || states[i].failed) continue;
      interface::Query probe(states[i].backend->schema().num_attributes());
      probe.AddEquals(join_attr_idx[i], key);
      auto r = states[i].backend->Execute(probe);
      if (!r.ok()) {
        // A probe the backend refuses (budget, network) leaves that
        // entity unjoined rather than failing the whole merge.
        out->join_exact = false;
        continue;
      }
      out->probe_queries += 1;
      if (r->overflow) out->join_exact = false;
      for (const data::Tuple& t : r->tuples) {
        obs[i].push_back({key, Project(t, states[i].ranking_attrs)});
      }
    }
  }
  for (const BackendState& st : states) {
    // A failed backend can contribute no observations; every entity
    // would be dropped by the inner join, so flag instead of returning
    // an empty join for a reason the caller cannot see.
    if (st.failed) out->join_exact = false;
  }
  out->joined = JoinSkyline(obs, num_backends);
  return Status::OK();
}

}  // namespace

const char* BackendHealthName(BackendHealth h) {
  switch (h) {
    case BackendHealth::kHealthy:
      return "healthy";
    case BackendHealth::kDegraded:
      return "degraded";
    case BackendHealth::kDead:
      return "dead";
  }
  return "unknown";
}

Result<FederatedResult> RunFederatedDiscovery(
    const std::vector<interface::HiddenDatabase*>& backends,
    const FederationOptions& options, const std::vector<std::string>& names) {
  if (backends.empty()) {
    return Status::InvalidArgument("federation needs at least one backend");
  }
  if (options.mode == FederationOptions::Mode::kJoin &&
      options.join_attr.empty()) {
    return Status::InvalidArgument("join federation needs join_attr");
  }
  const bool cross_prune =
      options.cross_prune && options.mode == FederationOptions::Mode::kUnion;

  // Canonical ranking space: backend 0's ranking attribute names, in
  // order. Every backend must rank the same names the same way — that
  // is what makes values comparable across sites.
  const data::Schema& schema0 = backends[0]->schema();
  std::vector<std::string> rank_names;
  for (const int a : schema0.ranking_attributes()) {
    rank_names.push_back(schema0.attribute(a).name);
  }
  const int m = static_cast<int>(rank_names.size());
  if (m == 0) {
    return Status::InvalidArgument("backend 0 has no ranking attributes");
  }

  std::vector<BackendState> states(backends.size());
  std::vector<int> join_attr_idx(backends.size(), -1);
  for (size_t i = 0; i < backends.size(); ++i) {
    BackendState& st = states[i];
    st.backend = backends[i];
    st.name = i < names.size() ? names[i]
                               : "backend-" + std::to_string(i);
    const data::Schema& schema = backends[i]->schema();
    st.ranking_attrs = schema.ranking_attributes();
    if (static_cast<int>(st.ranking_attrs.size()) != m) {
      return Status::InvalidArgument(
          st.name + ": ranks " + std::to_string(st.ranking_attrs.size()) +
          " attributes, federation expects " + std::to_string(m));
    }
    for (int j = 0; j < m; ++j) {
      const std::string& got =
          schema.attribute(st.ranking_attrs[static_cast<size_t>(j)]).name;
      if (got != rank_names[static_cast<size_t>(j)]) {
        return Status::InvalidArgument(
            st.name + ": ranking attribute " + std::to_string(j) + " is '" +
            got + "', federation expects '" +
            rank_names[static_cast<size_t>(j)] + "'");
      }
    }
    HDSKY_RETURN_IF_ERROR(
        PickAlgorithm(schema, options.algorithm, &st.algorithm));
    if (options.mode == FederationOptions::Mode::kJoin) {
      HDSKY_ASSIGN_OR_RETURN(join_attr_idx[i],
                             schema.IndexOf(options.join_attr));
    }
    st.pruner = std::make_unique<PruningDatabase>(backends[i]);
  }

  const int64_t k = static_cast<int64_t>(backends.size());
  const int64_t round_budget =
      options.round_budget > 0 ? options.round_budget
                               : std::max<int64_t>(64, 16 * k);
  int64_t total_remaining = options.total_budget;  // 0 = unlimited

  int pool_threads = options.num_threads > 0
                         ? options.num_threads
                         : std::min<int>(static_cast<int>(k),
                                         runtime::HardwareThreadCount());
  runtime::ThreadPool pool(std::min<int>(pool_threads, static_cast<int>(k)));

  std::vector<int> canonical_attrs(static_cast<size_t>(m));
  for (int j = 0; j < m; ++j) canonical_attrs[static_cast<size_t>(j)] = j;

  FederatedResult out;
  out.ranking_attr_names = rank_names;

  if (options.resume_state != nullptr) {
    HDSKY_RETURN_IF_ERROR(RestoreFederation(*options.resume_state, options,
                                            &states, &out.rounds,
                                            &total_remaining));
  } else {
    for (BackendState& st : states) {
      HDSKY_RETURN_IF_ERROR(StartDiscovery(&st, options, nullptr));
    }
  }

  // The shared dominance snapshot, in canonical ranking space. It only
  // grows: each round first inserts the tuples every backend's collector
  // confirmed since the previous barrier, then stays read-only for the
  // whole round, shared by every worker. Confirmations never revert and
  // DominatedOrEqual depends only on the set of inserted tuples, so this
  // decides every region exactly as a snapshot rebuilt from all
  // candidates would. Confirmed tuples suffice as witnesses: each
  // backend's confirmed set is the local skyline — the dominance closure
  // — of everything it has observed, so a raw observed tuple can never
  // dominate a region corner that a confirmed tuple does not already
  // dominate (verified empirically: indexing the full observed pool
  // changes no prune decision).
  skyline::DominanceIndex frozen(canonical_attrs);

  const auto interrupted = [&] {
    return options.interrupt && options.interrupt();
  };
  const auto checkpoint = [&]() -> Status {
    if (!options.on_round_checkpoint) return Status::OK();
    return options.on_round_checkpoint(
        BuildCheckpoint(options, states, out.rounds, total_remaining));
  };

  while (!interrupted()) {
    bool any_active = false;
    for (const BackendState& st : states) any_active |= st.active;
    if (!any_active) break;
    if (options.max_rounds > 0 && out.rounds >= options.max_rounds) break;

    int64_t budget = round_budget;
    if (options.total_budget > 0) {
      budget = std::min(budget, total_remaining);
      if (budget <= 0) break;
    }

    // Round participants: healthy actives always run; a degraded backend
    // sits out its backoff and then runs one re-probe round.
    bool any_participant = false;
    for (BackendState& st : states) {
      st.participates = st.active && (st.health == BackendHealth::kHealthy ||
                                      out.rounds >= st.next_probe_round);
      any_participant |= st.participates;
    }
    if (!any_participant) {
      // Every active backend is waiting out a probe backoff: tick the
      // round clock so the nearest probe comes due. The tick is
      // checkpointed — a resumed session must replay the same schedule.
      out.rounds += 1;
      HDSKY_RETURN_IF_ERROR(checkpoint());
      continue;
    }

    std::vector<BackendYield> yields(states.size());
    for (size_t i = 0; i < states.size(); ++i) {
      yields[i] = {states[i].participates, m, states[i].prev_confirmed,
                   states[i].last_round_paid, states[i].last_round_new};
    }
    const std::vector<int64_t> alloc =
        AllocateBudget(yields, budget, options.min_share);

    if (cross_prune) {
      for (BackendState& st : states) {
        const std::vector<data::Tuple>& confirmed = st.confirmed().tuples();
        for (; st.indexed < confirmed.size(); ++st.indexed) {
          frozen.Insert(Project(confirmed[st.indexed], st.ranking_attrs));
        }
      }
    }

    for (BackendState& st : states) {
      st.ran_this_round = false;
      st.continued = false;
    }
    for (size_t i = 0; i < states.size(); ++i) {
      if (!states[i].participates || alloc[i] <= 0) continue;
      BackendState* st = &states[i];
      st->ran_this_round = true;
      if (st->health == BackendHealth::kDegraded &&
          options.on_backend_reprobe) {
        // Settle any dangling journal intent from the failed attempt
        // before the traversal re-issues the failed query (or, if the
        // grown snapshot now prunes it, moves on to a different one).
        // A failure here IS the probe result: the backend is still
        // unreachable, so record a failed probe round and let the
        // health machine back off again.
        const common::Status ps = options.on_backend_reprobe(i);
        if (!ps.ok()) {
          st->round_status = ps;
          continue;
        }
      }
      const int64_t allowance = alloc[i];
      st->continued = true;
      const skyline::DominanceIndex* snapshot =
          cross_prune ? &frozen : nullptr;
      pool.Submit([st, snapshot, allowance] {
        // The traversal picks up exactly where it stopped last round.
        st->pruner->StartRound(allowance, snapshot);
        st->round_status = st->discovery->Continue();
      });
    }
    pool.WaitIdle();  // the round barrier

    // A round some backend left mid-flight (the cooperative interrupt
    // fired inside a driver) is torn: neither paused by its allowance nor
    // stopped by its backend's budget. Persisting it would cut the
    // session at a point no barrier describes, so the loop stops here —
    // the journals keep every paid answer, and a resumed session
    // re-executes the round from the previous barrier, replaying those
    // payments for free.
    bool torn = false;
    for (const BackendState& st : states) {
      if (st.continued && st.round_status.IsResourceExhausted() &&
          !st.pruner->round_paused() && !st.pruner->backend_exhausted()) {
        torn = true;
        break;
      }
    }
    if (torn) break;

    out.rounds += 1;
    int64_t paid_this_round = 0;
    for (size_t i = 0; i < states.size(); ++i) {
      BackendState& st = states[i];
      if (!st.ran_this_round) continue;
      st.rounds += 1;
      st.last_round_paid = st.pruner->paid() - st.prev_paid;
      st.prev_paid = st.pruner->paid();
      paid_this_round += st.last_round_paid;
      const Status& s = st.round_status;
      if (!st.continued || (!s.ok() && !s.IsResourceExhausted())) {
        // Health machine: a transient failure keeps the traversal in
        // memory, stopped at the query that failed (the answered queries
        // before it are kept and never paid for again), and schedules a
        // re-probe; a permanent error or a spent probe budget drops the
        // backend.
        st.error = s.ToString();
        st.probe_attempts += 1;
        const bool transient = s.IsIOError() || s.IsUnavailable();
        if (!transient || st.probe_attempts > options.max_probe_attempts) {
          st.health = BackendHealth::kDead;
          st.failed = true;
          st.active = false;
        } else {
          st.health = BackendHealth::kDegraded;
          st.next_probe_round =
              out.rounds + ProbeDelayRounds(options, i, st.probe_attempts);
        }
        continue;
      }
      if (st.health == BackendHealth::kDegraded) {
        // The re-probe succeeded: reintegrate. Coverage is judged at
        // the end of the run, so a recovered backend upgrades a
        // would-be PARTIAL result back to FULL.
        st.health = BackendHealth::kHealthy;
        st.probe_attempts = 0;
        st.recoveries += 1;
        st.error.clear();
      }
      const int64_t confirmed = st.confirmed().size();
      st.last_round_new = confirmed - st.prev_confirmed;
      st.prev_confirmed = confirmed;
      if (s.ok()) {
        st.complete = true;
        st.active = false;
      } else if (st.pruner->backend_exhausted()) {
        // The backend's own budget is gone for good — its unexplored
        // region may hide union-skyline tuples. Coverage is flagged at
        // the end of the run.
        st.active = false;
      }
      // else: paused by the round allowance; the traversal waits in
      // memory for the next round. (complete / backend-exhausted /
      // paused is exhaustive here: torn rounds were discarded above.)
    }
    if (options.total_budget > 0) total_remaining -= paid_this_round;
    HDSKY_RETURN_IF_ERROR(checkpoint());
  }

  for (const BackendState& st : states) {
    out.complete &= st.complete;
    // Coverage is judged here, at the end: a backend that failed and was
    // later reintegrated by a re-probe does not taint the result, while
    // one still degraded (or dead, or budget-exhausted) does.
    if (st.failed || st.health == BackendHealth::kDegraded ||
        st.pruner->backend_exhausted()) {
      out.partial_coverage = true;
    }
    BackendReport report;
    report.name = st.name;
    report.paid_queries = st.pruner->paid();
    report.pruned_queries = st.pruner->pruned();
    report.confirmed = st.confirmed().size();
    report.rounds = st.rounds;
    report.complete = st.complete;
    report.failed = st.failed;
    report.error = st.error;
    report.health = st.health;
    report.recoveries = st.recoveries;
    out.total_paid += report.paid_queries;
    out.total_pruned += report.pruned_queries;
    out.backends.push_back(std::move(report));
  }

  if (options.mode == FederationOptions::Mode::kJoin) {
    HDSKY_RETURN_IF_ERROR(JoinPhase(states, join_attr_idx, &out));
    // Probes are backend queries too.
    out.total_paid += out.probe_queries;
    return out;
  }

  // Union merge: global dominance filter + entity-keyed grouping. This
  // is also what makes cross-backend pruning exact (docs/federation.md).
  std::vector<Candidate> candidates;
  for (size_t i = 0; i < states.size(); ++i) {
    const BackendState& st = states[i];
    core::DiscoveryResult cands;  // id-sorted, tuples aligned
    st.confirmed().Finish(&cands);
    for (size_t j = 0; j < cands.skyline.size(); ++j) {
      Candidate c;
      c.backend = static_cast<int>(i);
      c.id = cands.skyline_ids[j];
      c.rank_values = Project(cands.skyline[j], st.ranking_attrs);
      c.tuple = std::move(cands.skyline[j]);
      candidates.push_back(std::move(c));
    }
  }
  out.skyline = MergeUnionSkyline(std::move(candidates));
  return out;
}

}  // namespace federation
}  // namespace hdsky
