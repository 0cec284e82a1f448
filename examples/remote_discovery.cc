// Remote discovery: spawn an EventDrivenServer on a loopback socket, connect
// a RemoteHiddenDatabase client to it, and run SQ-DB-SKY through the
// wire protocol — exactly as it would run in-process. Because
// RemoteHiddenDatabase implements interface::HiddenDatabase, the
// discovery algorithm cannot tell the difference; the example proves it
// by comparing the remote run against local ground truth and printing
// the client/server accounting.
//
//   ./examples/remote_discovery
//
// The public API surface used here:
//   service::EventDrivenServer     — serves any HiddenDatabase over TCP
//   service::RemoteHiddenDatabase  — HiddenDatabase backed by a socket
//   core::SqDbSky                  — discovery, unchanged over the wire
//   skyline::SkylineSFS            — local ground truth (we own the data)

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/sq_db_sky.h"
#include "dataset/synthetic.h"
#include "interface/ranking.h"
#include "interface/top_k_interface.h"
#include "service/event_server.h"
#include "service/remote_database.h"
#include "skyline/compute.h"

int main() {
  using namespace hdsky;

  // A 3-attribute database with small single-predicate (SQ) domains —
  // SQ-DB-SKY sweeps attribute values one point predicate at a time, so
  // small domains keep the walk short.
  dataset::SyntheticOptions gen;
  gen.num_tuples = 2000;
  gen.num_attributes = 3;
  gen.domain_size = 30;
  gen.iface = data::InterfaceType::kSQ;
  gen.seed = 2016;
  auto table_result = dataset::GenerateSynthetic(gen);
  if (!table_result.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 table_result.status().ToString().c_str());
    return 1;
  }
  const data::Table table = std::move(table_result).value();

  // The hidden database: a top-5 interface over a ranking the client
  // never sees.
  interface::TopKOptions topk;
  topk.k = 5;
  auto iface_result = interface::TopKInterface::Create(
      &table, interface::MakeSumRanking(), topk);
  if (!iface_result.ok()) {
    std::fprintf(stderr, "interface: %s\n",
                 iface_result.status().ToString().c_str());
    return 1;
  }
  auto iface = std::move(iface_result).value();

  // Serve it on an ephemeral loopback port.
  service::EventDrivenServer::Options server_options;
  auto server_result =
      service::EventDrivenServer::Start(iface.get(), server_options);
  if (!server_result.ok()) {
    std::fprintf(stderr, "serve: %s\n",
                 server_result.status().ToString().c_str());
    return 1;
  }
  auto server = std::move(server_result).value();
  std::printf("server listening on 127.0.0.1:%u\n", server->port());

  // Connect a client. From here on, `remote` IS a HiddenDatabase.
  auto remote_result = service::RemoteHiddenDatabase::Connect(
      "127.0.0.1", server->port(), {});
  if (!remote_result.ok()) {
    std::fprintf(stderr, "connect: %s\n",
                 remote_result.status().ToString().c_str());
    return 1;
  }
  auto remote = std::move(remote_result).value();
  std::printf("connected; server schema: %s, k=%d\n",
              remote->schema().ToString().c_str(), remote->k());

  // Discover the skyline through the socket alone.
  auto discovery = core::SqDbSky(remote.get());
  if (!discovery.ok()) {
    std::fprintf(stderr, "discovery: %s\n",
                 discovery.status().ToString().c_str());
    return 1;
  }

  // Ground truth: the distinct skyline value vectors (duplicated tuples
  // collapse — the interface cannot distinguish value-identical rows).
  const auto truth = skyline::DistinctSkylineValues(table);
  std::vector<data::Tuple> discovered = discovery->skyline;
  std::sort(discovered.begin(), discovered.end());
  discovered.erase(std::unique(discovered.begin(), discovered.end()),
                   discovered.end());

  std::printf("\ndatabase size      : %lld tuples\n",
              static_cast<long long>(table.num_rows()));
  std::printf("true skyline size  : %zu distinct value vectors\n",
              truth.size());
  std::printf("discovered skyline : %zu tuples\n",
              discovery->skyline.size());
  std::printf("query cost         : %lld top-%d queries over the wire\n",
              static_cast<long long>(discovery->query_cost), topk.k);
  std::printf("complete           : %s\n",
              discovery->complete ? "yes" : "no");

  const auto client_stats = remote->stats();
  std::printf("\nclient stats       : %lld remote queries, %lld retries, "
              "%lld B out / %lld B in\n",
              static_cast<long long>(client_stats.remote_queries),
              static_cast<long long>(client_stats.retries),
              static_cast<long long>(client_stats.bytes_sent),
              static_cast<long long>(client_stats.bytes_received));
  server->Stop();
  const auto stats = server->stats();
  std::printf("server accounting  : %lld served, %lld replayed, "
              "%lld protocol errors\n",
              static_cast<long long>(stats.queries_served),
              static_cast<long long>(stats.queries_replayed),
              static_cast<long long>(stats.protocol_errors));

  // The wire added nothing and lost nothing: the backend saw exactly
  // one execution per external query the algorithm issued.
  const bool accounted =
      stats.queries_served == discovery->query_cost &&
      client_stats.remote_queries == discovery->query_cost;
  const bool match = discovered == truth;
  std::printf("\nmatches ground truth: %s\n", match ? "YES" : "NO");
  std::printf("exact accounting    : %s\n", accounted ? "YES" : "NO");
  return (match && accounted) ? 0 : 2;
}
