// Segmented journal directories and their checkpoints.
//
// A journal directory holds the whole paid history of a session as a run
// of journal segments (see journal.h):
//
//   MANIFEST        "hdsky-manifest-v2 <first> <live>"
//   journal-<n>     segment n; first..live-1 are sealed, live takes appends
//
// A checkpoint seals the live segment: it appends a checkpoint record with
// the caller's session-state blob and fsyncs, creates journal-(live+1)
// with a synced header, then atomically swings MANIFEST to name it as the
// live segment. No answer is ever rewritten and no segment deleted, so a
// checkpoint costs the same at the thousandth answer as at the first. A
// crash at any boundary leaves MANIFEST naming whole segments: before the
// swing the half-built next segment is debris that the next open deletes,
// after it the sealed segment is already durable.
//
// A resume reads every segment from first to live in order. Sealed
// segments must be whole and end in their checkpoint record (a torn tail
// there is corruption, not a crash residue); only the live segment may
// end torn. The last checkpoint record carries the resume state, and a
// dangling intent is simply the last intent-or-result record overall.

#ifndef HDSKY_RECOVERY_CHECKPOINT_H_
#define HDSKY_RECOVERY_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace hdsky {
namespace recovery {

inline constexpr char kManifestFileName[] = "MANIFEST";

/// "journal-000007" for segment 7.
std::string JournalFileName(int64_t segment);

struct Manifest {
  /// Oldest segment of the session's history.
  int64_t first = 1;
  /// The segment appends go to; every segment before it is sealed.
  int64_t live = 1;
};

/// Atomically replaces dir/MANIFEST with a v2 manifest.
common::Status WriteManifest(const std::string& dir, const Manifest& m);

/// NotFound when no manifest exists (a fresh directory); IOError on any
/// malformation — a damaged manifest is never guessed around. A v1
/// manifest without a snapshot (no checkpoint ever ran) reads as segment
/// 1 alone; one whose epoch has a snapshot is Unsupported, since this
/// release reads no snapshots.
common::Result<Manifest> ReadManifest(const std::string& dir);

/// Deletes journal-<n> for every n > `live`: the half-built next segment
/// of a checkpoint that died before its manifest swing.
void RemoveSegmentsAfter(const std::string& dir, int64_t live);

// ---------------------------------------------------------------------------
// Session state: what a checkpoint records for the resume path.

struct SessionState {
  /// Resolved algorithm name ("sq", "rq", ...); a resume under a different
  /// algorithm is rejected rather than silently diverging.
  std::string algorithm;
  /// DiscoveryRun::SaveState blob (progress counters + confirmed skyline +
  /// anytime trace). Empty means "replay from the start".
  std::string run_state;
  /// Algorithm-specific frontier blob (queue / stack). Empty means
  /// "replay from the start".
  std::string frontier;
};

std::string EncodeSessionState(const SessionState& state);
/// An empty blob decodes to an empty SessionState (full-replay resume).
common::Result<SessionState> DecodeSessionState(std::string_view blob);

}  // namespace recovery
}  // namespace hdsky

#endif  // HDSKY_RECOVERY_CHECKPOINT_H_
