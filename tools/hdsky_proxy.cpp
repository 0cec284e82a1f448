// hdsky_proxy — a deterministic adversarial network in front of a
// hdsky_serve instance.
//
// Wraps service::FaultInjectingProxy as a standalone process so smoke
// tests (and curious humans) can put frame drops, truncations, spurious
// rate limits, and delays between any client and any server — including
// one backend of a federation, which is exactly how the CI federation
// smoke exercises degraded-backend behaviour.
//
//   hdsky_proxy --upstream 127.0.0.1:7447 --drop 0.05 --rate-limit 0.1
//
// Flags: ProxyFlags in src/session/flags.cc. --blackout-after N with
// --blackout-queries M is a deterministic kill/revive schedule: client
// queries with arrival index [N, N+M) (counted across connections,
// retries included) kill the connection as if the backend died, and the
// proxy recovers afterwards.
//
// Prints exactly one "listening on ADDR:PORT" line to stdout once ready
// (the same contract as hdsky_serve, so scripts parse both the same
// way), then proxies until SIGINT/SIGTERM, finally printing fault
// statistics to stderr.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "net/socket.h"
#include "service/fault_proxy.h"
#include "session/flags.h"

namespace {

std::atomic<bool> g_shutdown{false};

void HandleSignal(int) { g_shutdown.store(true); }

}  // namespace

int main(int argc, char** argv) {
  using namespace hdsky;
  session::ProxyConfig args;
  if (!session::ParseOrUsage(session::ProxyFlags(&args), argc, argv)) {
    return session::kExitUsage;
  }
  std::string upstream_host;
  uint16_t upstream_port = 0;
  net::ParseHostPort(args.upstream[0], &upstream_host, &upstream_port);

  service::FaultInjectingProxy::Policy policy;
  policy.seed = static_cast<uint64_t>(args.seed);
  policy.drop_prob = args.drop;
  policy.truncate_prob = args.truncate;
  policy.rate_limit_prob = args.rate_limit;
  policy.delay_prob = args.delay;
  policy.delay_ms = static_cast<int>(args.delay_ms);
  policy.blackout_after_queries = args.blackout_after;
  policy.blackout_queries = args.blackout_queries;

  service::FaultInjectingProxy::Options options;
  options.bind_address = args.bind;
  options.port = static_cast<uint16_t>(args.port);
  options.io_timeout_ms = static_cast<int>(args.io_timeout_ms);

  auto proxy_result = service::FaultInjectingProxy::Start(
      upstream_host, upstream_port, policy, options);
  if (!proxy_result.ok()) {
    return session::ReportFailure(stderr, "proxy", proxy_result.status());
  }
  auto proxy = std::move(proxy_result).value();

  std::fprintf(stderr,
               "upstream: %s (drop %.3f, truncate %.3f, rate-limit %.3f, "
               "delay %.3f x %lld ms, seed %lld)\n",
               args.upstream[0].c_str(), args.drop, args.truncate,
               args.rate_limit, args.delay,
               static_cast<long long>(args.delay_ms),
               static_cast<long long>(args.seed));
  std::printf("listening on %s:%u\n", args.bind.c_str(), proxy->port());
  std::fflush(stdout);

  struct sigaction sa{};
  sa.sa_handler = HandleSignal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  while (!g_shutdown.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  proxy->Stop();
  const service::FaultInjectingProxy::Stats stats = proxy->stats();
  std::fprintf(stderr,
               "proxied : %lld connections, %lld frames forwarded "
               "(%lld dropped, %lld truncated, %lld rate-limited, %lld "
               "delayed, %lld blacked out)\n",
               static_cast<long long>(stats.connections),
               static_cast<long long>(stats.frames_forwarded),
               static_cast<long long>(stats.frames_dropped),
               static_cast<long long>(stats.frames_truncated),
               static_cast<long long>(stats.rate_limits_injected),
               static_cast<long long>(stats.delays_injected),
               static_cast<long long>(stats.queries_blacked_out));
  return session::kExitOk;
}
