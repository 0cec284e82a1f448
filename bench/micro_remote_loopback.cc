// Microbenchmarks of the network service layer (wall-clock): per-query
// latency of Execute() in-process vs over a loopback socket, the same
// with the answer cache stacked on top of the remote client (warm
// hits never touch the wire), and a full RQ-DB-SKY discovery run both
// ways. These quantify the transport overhead, not the paper's
// query-cost metric — loopback equivalence tests already pin query
// counts to be identical.

#include <memory>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/rq_db_sky.h"
#include "dataset/synthetic.h"
#include "interface/caching_database.h"
#include "interface/ranking.h"
#include "service/event_server.h"
#include "service/remote_database.h"

namespace {

using namespace hdsky;

const data::Table& Data() {
  static const data::Table table = [] {
    dataset::SyntheticOptions o;
    o.num_tuples = 5000;
    o.num_attributes = 4;
    o.domain_size = 1000;
    o.iface = data::InterfaceType::kRQ;
    o.seed = 3500;
    return bench::Unwrap(dataset::GenerateSynthetic(o), "data");
  }();
  return table;
}

interface::Query BroadQuery() {
  interface::Query q(4);
  q.AddAtMost(0, 900);
  return q;
}

/// Server + connected client, torn down when the fixture dies.
struct Loopback {
  std::unique_ptr<interface::TopKInterface> backend;
  std::unique_ptr<service::EventDrivenServer> server;
  std::unique_ptr<service::RemoteHiddenDatabase> remote;

  Loopback() {
    backend =
        bench::MakeInterface(&Data(), interface::MakeSumRanking(), 10);
    // Every query reaches the backend, as it does in-process, so the
    // difference is the transport alone.
    server = bench::Unwrap(
        service::EventDrivenServer::Start(backend.get(), {}), "serve");
    remote = bench::Unwrap(service::RemoteHiddenDatabase::Connect(
                               "127.0.0.1", server->port(), {}),
                           "connect");
  }
};

void BM_ExecuteInProcess(benchmark::State& state) {
  auto iface = bench::MakeInterface(&Data(), interface::MakeSumRanking(),
                                    10);
  const interface::Query q = BroadQuery();
  for (auto _ : state) {
    auto r = iface->Execute(q);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ExecuteOverLoopback(benchmark::State& state) {
  Loopback net;
  const interface::Query q = BroadQuery();
  for (auto _ : state) {
    auto r = net.remote->Execute(q);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ExecuteCachedRemoteWarm(benchmark::State& state) {
  Loopback net;
  interface::CachingDatabase cached(net.remote.get());
  const interface::Query q = BroadQuery();
  auto warm = cached.Execute(q);  // one wire round trip; then all hits
  benchmark::DoNotOptimize(warm);
  for (auto _ : state) {
    auto r = cached.Execute(q);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_RqDiscoveryInProcess(benchmark::State& state) {
  for (auto _ : state) {
    auto iface = bench::MakeInterface(&Data(),
                                      interface::MakeSumRanking(), 10);
    auto r = core::RqDbSky(iface.get());
    benchmark::DoNotOptimize(r);
  }
}

void BM_RqDiscoveryOverLoopback(benchmark::State& state) {
  for (auto _ : state) {
    Loopback net;
    auto r = core::RqDbSky(net.remote.get());
    benchmark::DoNotOptimize(r);
  }
}

BENCHMARK(BM_ExecuteInProcess);
BENCHMARK(BM_ExecuteOverLoopback);
BENCHMARK(BM_ExecuteCachedRemoteWarm);
BENCHMARK(BM_RqDiscoveryInProcess)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RqDiscoveryOverLoopback)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
