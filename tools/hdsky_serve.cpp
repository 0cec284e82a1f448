// hdsky_serve — expose a hidden database over the hdsky wire protocol.
//
// Loads a dataset (CSV or one of the built-in simulators), wraps it in a
// TopKInterface with the chosen ranking/page-size/budget, and serves it on
// a TCP port so hdsky_discover --connect (or any RemoteHiddenDatabase
// client) can run discovery against a genuinely remote interface.
//
//   hdsky_serve --demo bluenile --n 100000 --k 50 --port 7447
//   hdsky_serve --data listings.csv --k 10 --port 0        # ephemeral port
//   hdsky_serve --demo flights --client-budget 500         # per-session cap
//
// Flags and their conflicts: ServeFlags in src/session/flags.cc; an
// invalid command line prints the generated usage and exits 64.
//
// Prints exactly one "listening on ADDR:PORT" line to stdout once ready
// (scripts parse it to learn an ephemeral port), then serves until
// SIGINT/SIGTERM, finally printing access statistics to stderr.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <thread>

#include "service/event_server.h"
#include "session/source.h"

namespace {

std::atomic<bool> g_shutdown{false};

void HandleSignal(int) { g_shutdown.store(true); }

}  // namespace

int main(int argc, char** argv) {
  using namespace hdsky;
  session::ServeConfig args;
  if (!session::ParseOrUsage(session::ServeFlags(&args), argc, argv)) {
    return session::kExitUsage;
  }
  session::LocalSource src;
  session::ExitCode rc = session::LoadSource(args.source, stderr, &src);
  if (rc == session::kExitOk) {
    rc = session::BindInterface(args.source, stderr, &src);
  }
  if (rc != session::kExitOk) return rc;

  // TopKInterface with a static-order ranking is thread-safe (see
  // docs/concurrency.md); both built-in rankings qualify, so connections
  // may hit the backend concurrently.
  service::EventDrivenServer::Options server_options;
  server_options.bind_address = args.bind;
  server_options.port = static_cast<uint16_t>(args.port);
  server_options.max_connections = static_cast<int>(args.max_connections);
  server_options.per_client_query_budget = args.client_budget;
  server_options.num_loops = static_cast<int>(args.loops);
  server_options.idle_timeout_ms = static_cast<int>(args.idle_timeout_ms);
  server_options.serialize_backend = false;
  auto server_result =
      service::EventDrivenServer::Start(src.iface.get(), server_options);
  if (!server_result.ok()) {
    return session::ReportFailure(stderr, "serve", server_result.status());
  }
  std::unique_ptr<service::EventDrivenServer> server =
      std::move(server_result).value();

  if (src.paged) {
    std::fprintf(stderr,
                 "dataset : %lld tuples (paged, ranking %s, pool %lld "
                 "bytes), %s\n",
                 static_cast<long long>(src.paged->num_rows()),
                 src.paged->ranking_name().c_str(),
                 static_cast<long long>(src.paged->pool()->budget_bytes()),
                 src.paged->schema().ToString().c_str());
  } else {
    std::fprintf(stderr, "dataset : %lld tuples, %s\n",
                 static_cast<long long>(src.table.num_rows()),
                 src.table.schema().ToString().c_str());
  }
  std::printf("listening on %s:%u\n", args.bind.c_str(), server->port());
  std::fflush(stdout);

  struct sigaction sa{};
  sa.sa_handler = HandleSignal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  while (!g_shutdown.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  server->Stop();
  const service::EventDrivenServer::Stats stats = server->stats();
  std::fprintf(stderr,
               "served  : %lld queries (%lld replayed, %lld budget "
               "rejections, %lld busy) over %lld connections "
               "(%lld rejected, %lld shed)\n",
               static_cast<long long>(stats.queries_served),
               static_cast<long long>(stats.queries_replayed),
               static_cast<long long>(stats.budget_rejections),
               static_cast<long long>(stats.busy_rejections),
               static_cast<long long>(stats.connections_accepted),
               static_cast<long long>(stats.connections_rejected),
               static_cast<long long>(stats.connections_shed));
  const interface::AccessStats access = src.iface->stats();
  std::fprintf(stderr, "backend : %lld queries issued, %lld tuples returned\n",
               static_cast<long long>(access.queries_issued),
               static_cast<long long>(access.tuples_returned));
  if (src.paged) session::PrintPoolStats(stderr, *src.paged);
  return session::kExitOk;
}
