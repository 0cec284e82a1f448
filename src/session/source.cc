#include "session/source.h"

#include "dataset/blue_nile.h"
#include "dataset/csv.h"
#include "dataset/flights_on_time.h"
#include "dataset/google_flights.h"
#include "dataset/yahoo_autos.h"

namespace hdsky {
namespace session {

using common::Status;

common::Result<data::Table> LoadTable(const SourceConfig& s) {
  if (!s.data.empty()) return dataset::ReadCsv(s.data);
  const uint64_t seed = static_cast<uint64_t>(s.seed);
  if (s.demo == "flights") {
    dataset::FlightsOptions o;
    if (s.n > 0) o.num_tuples = s.n;
    o.seed = seed;
    return dataset::GenerateFlightsOnTime(o);
  }
  if (s.demo == "bluenile") {
    dataset::BlueNileOptions o;
    if (s.n > 0) o.num_tuples = s.n;
    o.seed = seed;
    return dataset::GenerateBlueNile(o);
  }
  if (s.demo == "autos") {
    dataset::YahooAutosOptions o;
    if (s.n > 0) o.num_tuples = s.n;
    o.seed = seed;
    return dataset::GenerateYahooAutos(o);
  }
  if (s.demo == "route") {
    dataset::GoogleFlightsOptions o;
    if (s.n > 0) o.num_flights = s.n;
    o.seed = seed;
    return dataset::GenerateRoute(o);
  }
  return Status::InvalidArgument("unknown demo '" + s.demo + "'");
}

common::Result<std::shared_ptr<interface::RankingPolicy>> MakeRanking(
    const SourceConfig& s, const data::Schema& schema) {
  if (s.ranking == "sum") return interface::MakeSumRanking();
  if (s.ranking.rfind("lex:", 0) == 0) {
    HDSKY_ASSIGN_OR_RETURN(const int attr, schema.IndexOf(s.ranking.substr(4)));
    return interface::MakeLexicographicRanking({attr});
  }
  return Status::InvalidArgument("unknown ranking '" + s.ranking + "'");
}

ExitCode LoadSource(const SourceConfig& s, std::FILE* err, LocalSource* out) {
  if (s.dataset_file.empty()) {
    auto table = LoadTable(s);
    if (!table.ok()) return ReportFailure(err, "load", table.status());
    out->table = std::move(table).value();
    return kExitOk;
  }
  data::PagedTableOptions popts;
  if (s.buffer_pool_bytes > 0) {
    popts.buffer_pool_bytes = static_cast<size_t>(s.buffer_pool_bytes);
  }
  data::ParseReadPathKind(s.read_path, &popts.read_path);
  auto paged = data::Table::OpenPaged(s.dataset_file, popts);
  if (!paged.ok()) return ReportFailure(err, "load", paged.status());
  out->paged = std::move(paged).value();
  const data::BufferPool* pool = out->paged->pool();
  if (pool->budget_was_clamped()) {
    std::fprintf(
        err,
        "warning: --buffer-pool-bytes %llu below one page; effective "
        "budget %llu bytes\n",
        static_cast<unsigned long long>(pool->requested_budget_bytes()),
        static_cast<unsigned long long>(pool->budget_bytes()));
  }
  return kExitOk;
}

ExitCode BindInterface(const SourceConfig& s, std::FILE* err,
                       LocalSource* out) {
  interface::TopKOptions topk;
  topk.k = static_cast<int>(s.k);
  topk.query_budget = s.budget;
  if (out->paged) {
    auto iface = interface::TopKInterface::CreatePaged(out->paged.get(), topk);
    if (!iface.ok()) return ReportFailure(err, "interface", iface.status());
    out->iface = std::move(iface).value();
    return kExitOk;
  }
  auto ranking = MakeRanking(s, out->table.schema());
  if (!ranking.ok()) return ReportFailure(err, "ranking", ranking.status());
  auto iface = interface::TopKInterface::Create(
      &out->table, std::move(ranking).value(), topk);
  if (!iface.ok()) return ReportFailure(err, "interface", iface.status());
  out->iface = std::move(iface).value();
  return kExitOk;
}

void PrintPoolStats(std::FILE* f, const data::PagedTable& paged) {
  const data::BufferPool::Stats ps = paged.pool_stats();
  std::fprintf(f,
               "pool    : %s path, %llu hits, %llu misses, %llu loads, "
               "%llu evictions, %llu prefetched (%llu hit), %llu bytes "
               "read, %llu resident bytes\n",
               paged.pool()->read_path_name(),
               static_cast<unsigned long long>(ps.hits),
               static_cast<unsigned long long>(ps.misses),
               static_cast<unsigned long long>(ps.loads),
               static_cast<unsigned long long>(ps.evictions),
               static_cast<unsigned long long>(ps.prefetch_loads),
               static_cast<unsigned long long>(ps.prefetch_hits),
               static_cast<unsigned long long>(ps.bytes_read),
               static_cast<unsigned long long>(ps.resident_bytes));
}

}  // namespace session
}  // namespace hdsky
