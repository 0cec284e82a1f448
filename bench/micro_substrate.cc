// Microbenchmarks of the substrate (classic wall-clock google-benchmark):
// top-k query evaluation through the interface (broad vs selective, the
// k-d leaf walk in memory and out of core, against a naive rank-order
// scan), local skyline operators, K-skyband, and the in-memory k-d leaf
// build. These quantify the simulator itself, not the paper's query-cost
// metric.

#include <unistd.h>

#include <cstdlib>
#include <map>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "data/paged_table.h"
#include "dataset/pack.h"
#include "dataset/synthetic.h"
#include "data/kd_tree.h"
#include "interface/ranking.h"
#include "skyline/bbs.h"
#include "skyline/compute.h"
#include "skyline/skyband.h"

namespace {

using namespace hdsky;

const data::Table& Data(int64_t n) {
  static std::map<int64_t, data::Table> cache;
  n = bench::Scaled(n);
  auto it = cache.find(n);
  if (it == cache.end()) {
    dataset::SyntheticOptions o;
    o.num_tuples = n;
    o.num_attributes = 4;
    o.domain_size = 1000;
    o.seed = 3500;
    it = cache
             .emplace(n,
                      bench::Unwrap(dataset::GenerateSynthetic(o), "data"))
             .first;
  }
  return it->second;
}

/// The sum ranking's static order over `t` (a copy; setup, never timed).
std::vector<data::TupleId> SumOrder(const data::Table& t) {
  auto ranking = interface::MakeSumRanking();
  if (!ranking->Bind(&t, t.schema().ranking_attributes()).ok()) {
    std::abort();
  }
  return *ranking->static_order();
}

interface::Query BroadQuery() {
  interface::Query q(4);
  q.AddAtMost(0, 900);
  return q;
}

interface::Query SelectiveQuery() {
  interface::Query q(4);
  q.AddAtMost(0, 50).AddAtMost(1, 50).AddAtLeast(2, 950);
  return q;
}

void RunQueryBench(benchmark::State& state, interface::HiddenDatabase* iface,
                   const interface::Query& q) {
  // Buffer-reuse Execute: the measured loop matches how the discovery
  // algorithms issue queries (one QueryResult reused across the run).
  interface::QueryResult r;
  for (auto _ : state) {
    auto status = iface->Execute(q, &r);
    benchmark::DoNotOptimize(status);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}

/// The reference the selective-query gate in scripts/compare_bench.py
/// holds the walk to: a row-at-a-time scan in rank order that stops at
/// the (k+1)-th match, then materializes the answer.
void RunNaiveBench(benchmark::State& state, const data::Table& t,
                   const interface::Query& q, int k) {
  const std::vector<data::TupleId> order = SumOrder(t);
  const int m = t.schema().num_attributes();
  interface::QueryResult r;
  for (auto _ : state) {
    r.ids.clear();
    r.overflow = false;
    for (const data::TupleId row : order) {
      if (!q.MatchesRow(t, row)) continue;
      if (r.size() == k) {
        r.overflow = true;
        break;
      }
      r.ids.push_back(row);
    }
    r.tuples.resize(r.ids.size());
    for (size_t i = 0; i < r.ids.size(); ++i) {
      r.tuples[i].resize(static_cast<size_t>(m));
      for (int a = 0; a < m; ++a) {
        r.tuples[i][static_cast<size_t>(a)] = t.value(r.ids[i], a);
      }
    }
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ExecuteBroadQuery(benchmark::State& state) {
  const data::Table& t = Data(state.range(0));
  auto iface = bench::MakeInterface(&t, interface::MakeSumRanking(), 10);
  RunQueryBench(state, iface.get(), BroadQuery());
}

void BM_ExecuteSelectiveQuery(benchmark::State& state) {
  const data::Table& t = Data(state.range(0));
  auto iface = bench::MakeInterface(&t, interface::MakeSumRanking(), 10);
  RunQueryBench(state, iface.get(), SelectiveQuery());
}

void BM_ExecuteSelectiveQueryNaive(benchmark::State& state) {
  RunNaiveBench(state, Data(state.range(0)), SelectiveQuery(), 10);
}

void BM_ExecutePointQuery(benchmark::State& state) {
  const data::Table& t = Data(state.range(0));
  auto iface = bench::MakeInterface(&t, interface::MakeSumRanking(), 10);
  interface::Query q(4);
  q.AddEquals(0, 500).AddEquals(1, 500);
  RunQueryBench(state, iface.get(), q);
}

// ---------------------------------------------------------------------------
// Out-of-core tier: the same query shapes through TopKInterface::CreatePaged
// over a packed block file whose buffer pool is capped at 1/8 of the data
// bytes, so every cold query faults and CRC-verifies pages from disk and
// the warm working set still cannot all stay resident. The *Cold benches
// drop the pool between iterations (buffer-pool-cold; see
// docs/performance.md for what that does and does not measure), the *Warm
// benches reuse whatever the pool retained, and the BM_OocMem* twins run
// the identical queries through the same walk over the in-memory leaves
// — on the broad query, the pair the warm gate in
// scripts/compare_bench.py compares: one walk, two leaf sources.
// Counters: pool_bytes, data_bytes, evictions, bytes_read_per_iter
// (stored bytes fetched from disk per query), and exact_match (1 when a
// differential battery of queries returned bit-identical answers from
// the paged and in-memory interfaces). HDSKY_BUFFER_POOL_BYTES shrinks the pool
// further (CI's eviction-churn smoke); values above the 1/8 cap are
// clamped so the ratio gate stays meaningful.
//
// The *Cold tier comes in four variants per query shape, crossing the
// run encoding of the (format v3, k-d clustered) file with the read path:
//
//   BM_OocBroadQueryCold           raw runs,     mmap
//   BM_OocBroadQueryColdComp       encoded runs, mmap
//   BM_OocBroadQueryColdPread      raw runs,     pread
//   BM_OocBroadQueryColdCompPread  encoded runs, pread
//
// compare_bench.py pairs them by stripping the Comp/Pread suffixes and
// gates (a) compressed files reading >= --min-compress-bytes-ratio fewer
// stored bytes per cold query than raw at equal exactness and (b) pread
// cold medians staying within --pread-tolerance of mmap cold medians.
//
// The tier runs at k=100 (not the in-memory tier's k=10): a broad query
// at k=10 early-exits after ~40 rows and measures in the low hundreds of
// nanoseconds, where the paged path's fixed cost — a buffer-pool
// pin/unpin cycle per leaf visited — would dominate the ratio. k=100
// sizes the per-query work like the discovery workloads that matter
// out-of-core.

constexpr int kOocK = 100;

struct OocContext {
  std::unique_ptr<data::PagedTable> table;
  std::unique_ptr<interface::TopKInterface> iface;
  bool exact = false;
};

/// Both read paths over one packed file. The file is unlinked once both
/// tables hold it open (mmap keeps the mapping, pread keeps the fd).
struct OocGroup {
  OocContext mmap;
  OocContext pread;
};

std::vector<interface::Query> DifferentialBattery() {
  std::vector<interface::Query> battery;
  battery.push_back(BroadQuery());
  battery.push_back(SelectiveQuery());
  interface::Query point(4);
  point.AddEquals(0, 500).AddEquals(1, 500);
  battery.push_back(point);
  battery.push_back(interface::Query(4));  // unconstrained
  interface::Query narrow(4);
  narrow.AddAtMost(0, 5).AddAtMost(1, 5);
  battery.push_back(narrow);
  interface::Query empty(4);
  empty.AddAtLeast(0, 5000);  // outside the [0, 1000) domain
  battery.push_back(empty);
  return battery;
}

bool SameAnswer(const interface::QueryResult& a,
                const interface::QueryResult& b) {
  return a.overflow == b.overflow && a.ids == b.ids && a.tuples == b.tuples;
}

/// Opens one read-path variant over `path` and proves it exact against
/// the in-memory twin with the differential battery.
OocContext MakeOocContext(const data::Table& t, const std::string& path,
                          size_t pool, data::ReadPathKind kind) {
  data::PagedTableOptions popts;
  popts.buffer_pool_bytes = pool;
  popts.read_path = kind;

  OocContext ctx;
  ctx.table =
      bench::Unwrap(data::Table::OpenPaged(path, popts), "OpenPaged");

  interface::TopKOptions topk;
  topk.k = kOocK;
  ctx.iface = bench::Unwrap(
      interface::TopKInterface::CreatePaged(ctx.table.get(), topk),
      "TopKInterface::CreatePaged");

  // Differential battery: every query shape must return bit-identical
  // answers from the paged leaves and the in-memory ones.
  auto mem = bench::MakeInterface(&t, interface::MakeSumRanking(), kOocK);
  ctx.exact = true;
  interface::QueryResult rp, rm;
  for (const interface::Query& q : DifferentialBattery()) {
    const auto sp = ctx.iface->Execute(q, &rp);
    const auto sm = mem->Execute(q, &rm);
    if (!sp.ok() || !sm.ok() || !SameAnswer(rp, rm)) ctx.exact = false;
  }
  return ctx;
}

const OocGroup& OocFor(int64_t n, data::Compression comp) {
  static std::map<std::pair<int64_t, int>, OocGroup> cache;
  const std::pair<int64_t, int> key(bench::Scaled(n),
                                    static_cast<int>(comp));
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  const data::Table& t = Data(n);
  const std::string path = "/tmp/hdsky_ooc_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(key.first) + "_c" +
                           std::to_string(key.second) + ".hdb";
  data::BlockFileOptions fopts;
  fopts.rows_per_block = 1024;  // several leaves even at smoke scale
  fopts.compression = comp;
  bench::Unwrap(dataset::PackTable(t, interface::MakeSumRanking(), path,
                                   fopts),
                "pack");

  const uint64_t data_bytes =
      static_cast<uint64_t>(t.num_rows()) *
      static_cast<uint64_t>(t.schema().num_attributes() + 1) * 8;
  uint64_t pool = data_bytes / 8;
  if (const char* env = std::getenv("HDSKY_BUFFER_POOL_BYTES")) {
    const uint64_t v = std::strtoull(env, nullptr, 10);
    if (v > 0 && v < pool) pool = v;
  }

  OocGroup group;
  group.mmap = MakeOocContext(t, path, static_cast<size_t>(pool),
                              data::ReadPathKind::kMmap);
  group.pread = MakeOocContext(t, path, static_cast<size_t>(pool),
                               data::ReadPathKind::kPread);
  ::unlink(path.c_str());  // both tables hold the file open

  return cache.emplace(key, std::move(group)).first->second;
}

const OocContext& Ooc(int64_t n, data::Compression comp,
                      data::ReadPathKind kind) {
  const OocGroup& group = OocFor(n, comp);
  return kind == data::ReadPathKind::kPread ? group.pread : group.mmap;
}

void SetOocCounters(benchmark::State& state, const OocContext& ctx) {
  state.counters["pool_bytes"] =
      static_cast<double>(ctx.table->pool()->budget_bytes());
  state.counters["page_bytes"] =
      static_cast<double>(ctx.table->file().page_bytes());
  state.counters["data_bytes"] = static_cast<double>(ctx.table->data_bytes());
  state.counters["exact_match"] = ctx.exact ? 1.0 : 0.0;
  state.counters["evictions"] =
      static_cast<double>(ctx.table->pool_stats().evictions);
}

void RunOocQueryBench(benchmark::State& state, const OocContext& ctx,
                      const interface::Query& q, bool cold) {
  interface::QueryResult r;
  if (!cold) {
    // Fault the working set in: repeat until a pass adds no pool miss,
    // so the first timed repetition is as warm as the rest. A pool
    // smaller than the working set never gets there; stop trying then.
    for (int pass = 0; pass < 16; ++pass) {
      const uint64_t misses = ctx.table->pool_stats().misses;
      auto prime = ctx.iface->Execute(q, &r);
      benchmark::DoNotOptimize(prime);
      if (ctx.table->pool_stats().misses == misses) break;
    }
  }
  const uint64_t bytes_before = ctx.table->pool_stats().bytes_read;
  for (auto _ : state) {
    if (cold) {
      state.PauseTiming();
      ctx.table->pool()->DropAll();
      state.ResumeTiming();
    }
    auto status = ctx.iface->Execute(q, &r);
    benchmark::DoNotOptimize(status);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
  SetOocCounters(state, ctx);
  const uint64_t bytes_after = ctx.table->pool_stats().bytes_read;
  state.counters["bytes_read_per_iter"] =
      state.iterations() > 0
          ? static_cast<double>(bytes_after - bytes_before) /
                static_cast<double>(state.iterations())
          : 0.0;
}

constexpr data::Compression kRaw = data::Compression::kOff;
constexpr data::Compression kComp = data::Compression::kAuto;
constexpr data::ReadPathKind kMmapPath = data::ReadPathKind::kMmap;
constexpr data::ReadPathKind kPreadPath = data::ReadPathKind::kPread;

void BM_OocBroadQueryCold(benchmark::State& state) {
  RunOocQueryBench(state, Ooc(state.range(0), kRaw, kMmapPath),
                   BroadQuery(), true);
}

void BM_OocBroadQueryColdComp(benchmark::State& state) {
  RunOocQueryBench(state, Ooc(state.range(0), kComp, kMmapPath),
                   BroadQuery(), true);
}

void BM_OocBroadQueryColdPread(benchmark::State& state) {
  RunOocQueryBench(state, Ooc(state.range(0), kRaw, kPreadPath),
                   BroadQuery(), true);
}

void BM_OocBroadQueryColdCompPread(benchmark::State& state) {
  RunOocQueryBench(state, Ooc(state.range(0), kComp, kPreadPath),
                   BroadQuery(), true);
}

void BM_OocBroadQueryWarm(benchmark::State& state) {
  RunOocQueryBench(state, Ooc(state.range(0), kRaw, kMmapPath),
                   BroadQuery(), false);
}

void BM_OocSelectiveQueryCold(benchmark::State& state) {
  RunOocQueryBench(state, Ooc(state.range(0), kRaw, kMmapPath),
                   SelectiveQuery(), true);
}

void BM_OocSelectiveQueryColdComp(benchmark::State& state) {
  RunOocQueryBench(state, Ooc(state.range(0), kComp, kMmapPath),
                   SelectiveQuery(), true);
}

void BM_OocSelectiveQueryColdPread(benchmark::State& state) {
  RunOocQueryBench(state, Ooc(state.range(0), kRaw, kPreadPath),
                   SelectiveQuery(), true);
}

void BM_OocSelectiveQueryColdCompPread(benchmark::State& state) {
  RunOocQueryBench(state, Ooc(state.range(0), kComp, kPreadPath),
                   SelectiveQuery(), true);
}

void BM_OocSelectiveQueryWarm(benchmark::State& state) {
  RunOocQueryBench(state, Ooc(state.range(0), kRaw, kMmapPath),
                   SelectiveQuery(), false);
}

void BM_OocMemBroadQuery(benchmark::State& state) {
  const data::Table& t = Data(state.range(0));
  auto iface = bench::MakeInterface(&t, interface::MakeSumRanking(), kOocK);
  RunQueryBench(state, iface.get(), BroadQuery());
}

void BM_OocMemSelectiveQuery(benchmark::State& state) {
  const data::Table& t = Data(state.range(0));
  auto iface = bench::MakeInterface(&t, interface::MakeSumRanking(), kOocK);
  RunQueryBench(state, iface.get(), SelectiveQuery());
}

/// The in-memory k-d leaf build TopKInterface::Create runs under a
/// static ranking (the ranking's bind is not timed).
void BM_KdLeavesBuild(benchmark::State& state) {
  const data::Table& t = Data(state.range(0));
  const std::vector<data::TupleId> order = SumOrder(t);
  for (auto _ : state) {
    auto leaves = bench::Unwrap(data::KdLeaves::Build(t, order), "build");
    benchmark::DoNotOptimize(leaves->tree().num_nodes());
  }
}

void BM_SkylineBNL(benchmark::State& state) {
  const data::Table& t = Data(state.range(0));
  for (auto _ : state) {
    auto s = skyline::SkylineBNL(t);
    benchmark::DoNotOptimize(s.size());
  }
}

void BM_SkylineSFS(benchmark::State& state) {
  const data::Table& t = Data(state.range(0));
  for (auto _ : state) {
    auto s = skyline::SkylineSFS(t);
    benchmark::DoNotOptimize(s.size());
  }
}

void BM_SkylineDnC(benchmark::State& state) {
  const data::Table& t = Data(state.range(0));
  for (auto _ : state) {
    auto s = skyline::SkylineDnC(t);
    benchmark::DoNotOptimize(s.size());
  }
}

void BM_SkylineBBS(benchmark::State& state) {
  const data::Table& t = Data(state.range(0));
  const skyline::RTree tree =
      bench::Unwrap(skyline::RTree::Build(&t), "rtree");
  for (auto _ : state) {
    auto s = skyline::SkylineBBS(tree);
    benchmark::DoNotOptimize(s->size());
  }
}

void BM_RTreeBuild(benchmark::State& state) {
  const data::Table& t = Data(state.range(0));
  for (auto _ : state) {
    auto tree = skyline::RTree::Build(&t);
    benchmark::DoNotOptimize(tree->num_nodes());
  }
}

void BM_KSkyband(benchmark::State& state) {
  const data::Table& t = Data(state.range(0));
  for (auto _ : state) {
    auto s = skyline::KSkyband(t, 3);
    benchmark::DoNotOptimize(s.size());
  }
}

}  // namespace

BENCHMARK(BM_ExecuteBroadQuery)->Arg(10000)->Arg(100000);
BENCHMARK(BM_ExecuteSelectiveQuery)->Arg(10000)->Arg(100000);
BENCHMARK(BM_ExecuteSelectiveQueryNaive)->Arg(10000)->Arg(100000);
BENCHMARK(BM_ExecutePointQuery)->Arg(10000)->Arg(100000);
BENCHMARK(BM_OocBroadQueryCold)->Arg(10000)->Arg(100000);
BENCHMARK(BM_OocBroadQueryColdComp)->Arg(10000)->Arg(100000);
BENCHMARK(BM_OocBroadQueryColdPread)->Arg(10000)->Arg(100000);
BENCHMARK(BM_OocBroadQueryColdCompPread)->Arg(10000)->Arg(100000);
BENCHMARK(BM_OocBroadQueryWarm)->Arg(10000)->Arg(100000);
BENCHMARK(BM_OocSelectiveQueryCold)->Arg(10000)->Arg(100000);
BENCHMARK(BM_OocSelectiveQueryColdComp)->Arg(10000)->Arg(100000);
BENCHMARK(BM_OocSelectiveQueryColdPread)->Arg(10000)->Arg(100000);
BENCHMARK(BM_OocSelectiveQueryColdCompPread)->Arg(10000)->Arg(100000);
BENCHMARK(BM_OocSelectiveQueryWarm)->Arg(10000)->Arg(100000);
BENCHMARK(BM_OocMemBroadQuery)->Arg(10000)->Arg(100000);
BENCHMARK(BM_OocMemSelectiveQuery)->Arg(10000)->Arg(100000);
BENCHMARK(BM_KdLeavesBuild)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SkylineBNL)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SkylineSFS)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SkylineDnC)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SkylineBBS)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RTreeBuild)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_KSkyband)->Arg(10000)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
