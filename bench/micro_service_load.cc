// Microbenchmark of the event-driven service under multi-session load:
// an in-process EventDrivenServer is driven by the LoadDriver (the same
// engine behind tools/hdsky_loadgen) at several concurrency levels, and
// the interesting service metrics — p50/p99 query latency, sustained
// sessions and throughput — are exported as counters so
// scripts/compare_bench.py can gate them against the pinned baseline
// (BENCH_service.json).

#include <memory>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "dataset/synthetic.h"
#include "interface/ranking.h"
#include "service/event_server.h"
#include "service/load_driver.h"

namespace {

using namespace hdsky;

const data::Table& Data() {
  static const data::Table table = [] {
    dataset::SyntheticOptions o;
    o.num_tuples = 20000;
    o.num_attributes = 3;
    o.domain_size = 10000;
    o.iface = data::InterfaceType::kRQ;
    o.seed = 42;
    return bench::Unwrap(dataset::GenerateSynthetic(o), "data");
  }();
  return table;
}

/// One full load run: start a fresh server, drive `sessions` concurrent
/// pipelined sessions through the shared workload, tear down.
service::LoadReport RunOnce(int sessions, int queries) {
  auto backend =
      bench::MakeInterface(&Data(), interface::MakeSumRanking(), 10);
  service::EventDrivenServer::Options opts;
  opts.max_connections = sessions + 16;
  auto server = bench::Unwrap(
      service::EventDrivenServer::Start(backend.get(), opts), "serve");

  service::LoadOptions load;
  load.port = server->port();
  load.sessions = sessions;
  load.queries_per_session = queries;
  load.pipeline_depth = 8;
  auto report = bench::Unwrap(service::RunLoad(load), "load");
  server->Stop();
  return report;
}

void ReportCounters(benchmark::State& state,
                    const service::LoadReport& report) {
  state.counters["sessions"] =
      static_cast<double>(report.sessions_completed);
  state.counters["qps"] = report.qps;
  state.counters["p50_us"] = report.latency_p50_us;
  state.counters["p99_us"] = report.latency_p99_us;
  if (!report.complete) state.SkipWithError("load run incomplete");
}

void BM_ServiceLoad(benchmark::State& state) {
  const int sessions =
      static_cast<int>(bench::Scaled(state.range(0)));
  const int queries = static_cast<int>(bench::Scaled(32));
  service::LoadReport report;
  for (auto _ : state) {
    report = RunOnce(sessions, queries);
  }
  ReportCounters(state, report);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(sessions) * queries);
}
BENCHMARK(BM_ServiceLoad)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
