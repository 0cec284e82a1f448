// hdsky_discover — command-line skyline / sky-band discovery.
//
// Runs the paper's algorithms against a dataset loaded from a
// self-describing CSV (see dataset/csv.h), one of the built-in
// simulators, a packed block file, or remote hdsky_serve instance(s).
// Prints a summary and optionally writes the discovered tuples as CSV.
//
//   hdsky_discover --data listings.csv --algorithm mq --k 50
//   hdsky_discover --demo bluenile --k 50 --out skyline.csv
//   hdsky_discover --demo flights --n 100000 --algorithm rq --budget 500
//   hdsky_discover --demo autos --band 2
//   hdsky_discover --connect 127.0.0.1:7447 --algorithm sq --cache
//   hdsky_discover --connect h1:7447,h2:7447,h3:7447 --federate union
//
// The flags and their conflicts are declared in DiscoverFlags
// (src/session/flags.cc); any invalid command line prints the generated
// usage. The session itself — the layer stack, the trial and federated
// modes, the summary lines — is session::RunSession (src/session). The
// exit codes are session::ExitCode (README, "Command-line tools").
//
// SIGINT/SIGTERM interrupt the discovery cooperatively: the run unwinds
// as an anytime partial result, the journal (if any) takes a final
// checkpoint, and the partial skyline/outputs are still written.

#include <atomic>
#include <csignal>

#include "recovery/crash_point.h"
#include "session/session.h"

namespace {

std::atomic<bool> g_interrupt{false};

void HandleSignal(int) { g_interrupt.store(true); }

}  // namespace

int main(int argc, char** argv) {
  using namespace hdsky;
  session::SessionConfig config;
  if (!session::ParseOrUsage(session::DiscoverFlags(&config), argc, argv)) {
    return session::kExitUsage;
  }
  struct sigaction sa = {};
  sa.sa_handler = HandleSignal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  recovery::ArmCrashPointFromEnv();

  session::SessionEnv env;
  env.interrupt = [] { return g_interrupt.load(); };
  return session::RunSession(config, env).exit;
}
