// hdsky_discover as a library: a SessionConfig (the parsed flags, see
// session/flags.h) goes in, RunSession executes it, and a SessionReport
// comes out. Every combination of source, wrapper layer and algorithm is
// built here, in one place.
//
// Layer stack. A single-site session stacks its layers in one fixed
// order, bottom to top:
//
//   1. source     --data / --demo: an in-memory Table;
//                 --dataset-file: a PagedTable behind a buffer pool;
//                 both behind a local TopKInterface (--k, --ranking,
//                 --budget). Or --connect: a RemoteHiddenDatabase whose
//                 server fixes k, ranking and budget.
//   2. journal    --journal DIR: a write-ahead journal with checkpoints.
//                 Answers a previous run paid for replay at zero backend
//                 cost, so a rerun resumes where a killed run stopped.
//   3. cache      --cache / --cache-file: memoizes repeat queries before
//                 they reach the journal or the network.
//   4. algorithm  --algorithm / --band, programmed against the top of the
//                 stack through HiddenDatabase.
//
// Modes of the same call:
//   - --trials T runs T single-site sessions with seeds S..S+T-1 on
//     --threads workers. Each builds its own source and algorithm layers.
//   - --federate runs one coordinator over every --connect endpoint.
//     Each backend is a remote source with, under --journal, its own
//     journal in DIR/backend-<i>; DIR/STATE holds the coordinator's
//     round-barrier checkpoint.
//
// Output. Progress lines ("dataset", "remote", "journal : resuming") are
// printed as the layers open; the summary lines and the written outputs
// (--out, --trace, --federation-json, --cache-file) follow the run.

#ifndef HDSKY_SESSION_SESSION_H_
#define HDSKY_SESSION_SESSION_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "core/discovery.h"
#include "federation/federated_discovery.h"
#include "recovery/journaling_database.h"
#include "session/flags.h"
#include "session/source.h"

namespace hdsky {
namespace session {

struct SessionEnv {
  std::FILE* out = stdout;  // progress and summary lines
  std::FILE* err = stderr;  // diagnostics and per-layer statistics
  /// Polled between queries; true unwinds the run as an anytime partial
  /// result (SIGINT/SIGTERM in hdsky_discover).
  std::function<bool()> interrupt;
};

struct SessionReport {
  ExitCode exit = kExitOk;
  /// Single-site sessions: the discovered tuples, their query cost, and
  /// the progress trace.
  core::DiscoveryResult result;
  /// --trials: one result per trial, in seed order.
  std::vector<core::DiscoveryResult> trials;
  /// --federate: the coordinator's result.
  federation::FederatedResult federated;
  /// --journal: answers replayed from the journal and answers paid to the
  /// backend, summed over the backends of a federated session.
  recovery::JournalingDatabase::Stats journal;
};

/// Runs one hdsky_discover session. Arms config.crash_point, if set.
SessionReport RunSession(const SessionConfig& config,
                         const SessionEnv& env = SessionEnv());

}  // namespace session
}  // namespace hdsky

#endif  // HDSKY_SESSION_SESSION_H_
