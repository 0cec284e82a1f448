// Durable coordinator state for federated discovery sessions.
//
// A federated run under --journal DIR keeps one write-ahead journal per
// backend (recovery/journaling_database.h, in DIR/backend-<i>) plus ONE
// coordinator-level round checkpoint: DIR/STATE, a single CRC32C-framed
// blob holding the round number, the budget remaining, and every
// backend's barrier state (paused frontier codec, confirmed candidates,
// yield counters, health-machine position). The coordinator rewrites
// STATE atomically (temp + fsync + rename) at the end of every
// scheduling round, so at any instant the directory holds exactly one
// consistent round boundary.
//
// Crash discipline. Every value in STATE is captured at a round barrier
// — never mid-round — so a resumed coordinator re-executes the crashed
// round from identical inputs (same frozen dominance snapshot, same
// budget allocations, same frontiers). The re-executed queries hit the
// per-backend journals' replay maps and cost nothing; queries past the
// crash point are genuinely new. That is what makes `kill -9` at any
// crash point + resume produce byte-identical output with zero repeated
// backend queries (docs/federation.md, "Durable federation").
//
// Crash points: "federation.checkpoint.pre_state" fires with the new
// round fully executed but STATE still describing the previous round;
// "federation.checkpoint.post_state" fires just after the atomic STATE
// swing. Both are round barriers, so recovery from either is exact.

#ifndef HDSKY_RECOVERY_FEDERATION_STATE_H_
#define HDSKY_RECOVERY_FEDERATION_STATE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/value.h"

namespace hdsky {
namespace recovery {

inline constexpr char kFederationStateFileName[] = "STATE";

/// One backend's barrier state, exactly what the coordinator needs to
/// re-enter the next round as if the process had never died.
struct FederatedBackendState {
  /// Identity, validated on resume: a session restarted against a
  /// different endpoint list or driver is rejected, never guessed around.
  std::string name;
  std::string algorithm;  // resolved driver: "sq" or "rq"

  /// The backend's live traversal at the barrier: DiscoveryRun::SaveState
  /// blob + the algorithm's frontier codec. Set for every backend that
  /// will run again; a finished backend keeps only its candidates.
  bool has_resume = false;
  std::string run_state;
  std::string frontier;

  /// Confirmed candidates at the barrier (the backend's local skyline),
  /// id-sorted: what a resumed coordinator seeds its frozen dominance
  /// snapshot with.
  std::vector<data::TupleId> cand_ids;
  std::vector<data::Tuple> cand_tuples;

  /// Yield counters feeding BudgetScheduler, plus the pruner's
  /// cumulative accounting.
  int64_t prev_confirmed = 0;
  int64_t prev_paid = 0;
  int64_t last_round_paid = 0;
  int64_t last_round_new = 0;
  int64_t rounds = 0;
  int64_t paid = 0;
  int64_t pruned = 0;

  /// Health state machine: 0 = healthy, 1 = degraded, 2 = dead
  /// (federation::BackendHealth). A degraded backend resumes mid-backoff.
  uint8_t health = 0;
  int64_t probe_attempts = 0;
  int64_t next_probe_round = 0;
  int64_t recoveries = 0;

  bool complete = false;
  bool failed = false;
  bool backend_exhausted = false;
  std::string error;

  /// The pruner's deduplicated observed-tuple pool (join-mode entity
  /// coverage; persisted so resumed joins need no extra probes).
  std::vector<data::TupleId> observed_ids;
  std::vector<data::Tuple> observed_tuples;
};

/// The coordinator's round checkpoint.
struct FederationSessionState {
  std::string mode;       // "union" | "join"
  std::string algorithm;  // requested driver ("auto" | "sq" | "rq")
  int64_t rounds = 0;
  /// Federation-wide budget still unspent (meaningful only when the run
  /// was started with a total budget).
  int64_t total_remaining = 0;
  std::vector<FederatedBackendState> backends;
};

std::string EncodeFederationState(const FederationSessionState& state);
common::Result<FederationSessionState> DecodeFederationState(
    std::string_view blob);

/// Atomically replaces dir/STATE with the checkpoint. Crash points
/// "federation.checkpoint.pre_state" / "federation.checkpoint.post_state"
/// bracket the swing.
common::Status SaveFederationState(const std::string& dir,
                                   const FederationSessionState& state);

/// Reads and verifies dir/STATE. NotFound when no checkpoint exists (a
/// fresh session); IOError on any damage — a corrupt checkpoint is
/// rejected whole, never partially adopted.
common::Result<FederationSessionState> LoadFederationState(
    const std::string& dir);

}  // namespace recovery
}  // namespace hdsky

#endif  // HDSKY_RECOVERY_FEDERATION_STATE_H_
