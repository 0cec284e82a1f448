// Microbenchmarks of end-to-end discovery wall-clock cost and of the
// SkylineCollector's dominance maintenance (classic google-benchmark).
//
// BM_DiscoveryRQ times a full fig13-style RQ-DB-SKY run against a
// prebuilt top-k interface and reports queries/sec, the number that
// bounds how far the figure sweeps and hdsky_serve can be pushed.
// The collector benches isolate SkylineCollector::Observe against a
// linear-scan reference on small- and large-skyline observation streams;
// together with micro_substrate these feed BENCH_discovery.json /
// BENCH_substrate.json (see scripts/run_benches.sh and
// docs/performance.md).

#include <map>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/discovery.h"
#include "core/rq_db_sky.h"
#include "dataset/synthetic.h"
#include "interface/ranking.h"
#include "skyline/dominance.h"

namespace {

using namespace hdsky;

const data::Table& Data(int64_t n, dataset::Distribution dist) {
  static std::map<std::pair<int64_t, int>, data::Table> cache;
  const auto key = std::make_pair(n, static_cast<int>(dist));
  auto it = cache.find(key);
  if (it == cache.end()) {
    dataset::SyntheticOptions o;
    o.num_tuples = n;
    o.num_attributes = 4;
    o.domain_size = 1000;
    o.distribution = dist;
    o.seed = 3500;
    it = cache
             .emplace(key,
                      bench::Unwrap(dataset::GenerateSynthetic(o), "data"))
             .first;
  }
  return it->second;
}

void BM_DiscoveryRQ(benchmark::State& state) {
  const data::Table& t =
      Data(bench::Scaled(state.range(0)), dataset::Distribution::kIndependent);
  // Built once, outside the timed loop: the interface's kd index over
  // every row costs more than the discovery run itself, and RQ-DB-SKY
  // leaves an unlimited-budget interface unchanged, so every iteration
  // runs against the same interface.
  auto iface = bench::MakeInterface(&t, interface::MakeSumRanking(), 10);
  int64_t query_cost = 0, skyline = 0;
  for (auto _ : state) {
    auto r = bench::Unwrap(core::RqDbSky(iface.get()), "RqDbSky");
    query_cost = r.query_cost;
    skyline = static_cast<int64_t>(r.skyline.size());
  }
  state.counters["query_cost"] = static_cast<double>(query_cost);
  state.counters["skyline"] = static_cast<double>(skyline);
  state.counters["queries_per_sec"] = benchmark::Counter(
      static_cast<double>(query_cost) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations() * query_cost);
}

/// The pre-index SkylineCollector::Observe: a linear scan over every
/// confirmed tuple per observation. Kept here as the differential
/// reference the CI perf-smoke job compares the indexed collector against.
class LinearCollector {
 public:
  explicit LinearCollector(std::vector<int> ranking_attrs)
      : ranking_attrs_(std::move(ranking_attrs)) {}

  bool Observe(const data::Tuple& t) {
    for (const data::Tuple& s : tuples_) {
      const skyline::DomRelation rel =
          skyline::Compare(s, t, ranking_attrs_);
      if (rel == skyline::DomRelation::kDominates ||
          rel == skyline::DomRelation::kEqual) {
        return false;
      }
    }
    tuples_.push_back(t);
    return true;
  }

  size_t size() const { return tuples_.size(); }

 private:
  std::vector<int> ranking_attrs_;
  std::vector<data::Tuple> tuples_;
};

void BM_CollectorObserveLinear(benchmark::State& state) {
  const data::Table& t = Data(bench::Scaled(state.range(0)),
                              dataset::Distribution::kAntiCorrelated);
  const int64_t n = t.num_rows();
  for (auto _ : state) {
    LinearCollector collector(t.schema().ranking_attributes());
    for (data::TupleId row = 0; row < n; ++row) {
      collector.Observe(t.GetTuple(row));
    }
    benchmark::DoNotOptimize(collector.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_CollectorObserveIndexed(benchmark::State& state) {
  const data::Table& t = Data(bench::Scaled(state.range(0)),
                              dataset::Distribution::kAntiCorrelated);
  const int64_t n = t.num_rows();
  for (auto _ : state) {
    core::SkylineCollector collector(t.schema().ranking_attributes());
    for (data::TupleId row = 0; row < n; ++row) {
      collector.Observe(row, t.GetTuple(row));
    }
    benchmark::DoNotOptimize(collector.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

}  // namespace

BENCHMARK(BM_DiscoveryRQ)
    ->Arg(20000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CollectorObserveLinear)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CollectorObserveIndexed)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
