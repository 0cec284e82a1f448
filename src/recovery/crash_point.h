// Deterministic crash injection for crash-recovery testing.
//
// A crash point is a named location in the persistence code (journal
// append, checkpoint rename, ...) where the process can be made to die
// abruptly — no stack unwinding, no atexit handlers, no stdio flush —
// exactly as if it had been SIGKILLed or lost power at that instant.
// Tests arm one point (by name, optionally with a hit count) through the
// HDSKY_CRASH_POINT environment variable or the hdsky_discover
// --crash-point flag, run to the crash, then restart the process and
// assert that recovery reproduces the uninterrupted outcome.
//
//   HDSKY_CRASH_POINT="journal.append.torn"      die on the 1st hit
//   HDSKY_CRASH_POINT="checkpoint.pre_manifest:3"  die on the 3rd hit
//
// Points defined by the recovery subsystem:
//   journal.append.pre_sync   record handed to the OS, fsync not yet run
//   journal.append.torn       record half-written: a torn tail on disk
//   checkpoint.pre_snapshot   checkpoint decided, nothing written yet
//   checkpoint.pre_manifest   live segment sealed and the next segment's
//                             header on disk, manifest still names the
//                             old live segment
//   checkpoint.pre_cleanup    manifest swung to the next segment, the
//                             writer not yet switched to it
//   federation.checkpoint.pre_state   a federation round fully executed,
//                             DIR/STATE still describing the previous one
//   federation.checkpoint.post_state  DIR/STATE atomically swung to the
//                             new round
//
// In production nothing is armed and every CrashPointHit() is a single
// predictable branch.

#ifndef HDSKY_RECOVERY_CRASH_POINT_H_
#define HDSKY_RECOVERY_CRASH_POINT_H_

#include <string>

namespace hdsky {
namespace recovery {

/// Exit code of an injected crash; chosen to match a SIGKILLed process
/// (128 + 9) so scripts can assert the run died the violent way.
inline constexpr int kCrashExitCode = 137;

/// Arms `spec` ("name" or "name:count"); overrides any previous arming.
/// An empty spec disarms. Invalid specs are ignored (never fatal).
void ArmCrashPoint(const std::string& spec);

/// Arms from $HDSKY_CRASH_POINT if set. Called by the tools at startup.
void ArmCrashPointFromEnv();

/// True when `name` is the armed point (regardless of remaining count).
/// Lets a caller stage a deliberately torn write before dying.
bool CrashPointArmed(const char* name);

/// Registers one hit of `name`; when it is the armed point and the hit
/// count is reached, the process dies immediately via _exit — no
/// unwinding, no flushes, simulating kill -9 at this exact boundary.
void CrashPointHit(const char* name);

}  // namespace recovery
}  // namespace hdsky

#endif  // HDSKY_RECOVERY_CRASH_POINT_H_
