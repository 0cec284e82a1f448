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
// Flags:
//   --data PATH            input CSV (one source: --data | --demo |
//                          --dataset-file)
//   --demo NAME            flights | bluenile | autos | route
//   --dataset-file FILE    packed block file written by hdsky_pack; the
//                          server answers out-of-core through the buffer
//                          pool (--ranking is rejected: the rank order
//                          is baked into the file at pack time)
//   --buffer-pool-bytes N  resident-memory budget for --dataset-file
//                          (default 256 MiB)
//   --n N                  demo dataset size (default: the paper's)
//   --k K                  page size of the interface (default 10)
//   --ranking R            sum | lex:<attr_name>   (default sum)
//   --budget B             backend-wide query budget (0 = unlimited)
//   --client-budget B      per-client-session budget (0 = unlimited)
//   --seed S               generator seed for --demo
//   --port P               TCP port; 0 picks an ephemeral one (default 0)
//   --bind ADDR            IPv4 bind address (default 127.0.0.1)
//   --max-connections C    concurrent connections served (default 4096)
//   --loops L              event-loop threads (0 = auto)
//   --workers W            backend executor threads (0 = auto)
//   --no-shared-cache      disable the cross-session query cache
//   --max-pending P        backend admission limit before BUSY
//   --idle-timeout-ms T    idle connection eviction, 0 = never
//
// Prints exactly one "listening on ADDR:PORT" line to stdout once ready
// (scripts parse it to learn an ephemeral port), then serves until
// SIGINT/SIGTERM, finally printing access statistics to stderr.

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "data/paged_table.h"
#include "dataset/blue_nile.h"
#include "dataset/csv.h"
#include "dataset/flights_on_time.h"
#include "dataset/google_flights.h"
#include "dataset/yahoo_autos.h"
#include "interface/ranking.h"
#include "interface/top_k_interface.h"
#include "service/event_server.h"

namespace {

using namespace hdsky;

std::atomic<bool> g_shutdown{false};

void HandleSignal(int) { g_shutdown.store(true); }

struct Args {
  std::string data;
  std::string demo;
  std::string dataset_file;
  int64_t buffer_pool_bytes = 0;  // 0 = PagedTableOptions default
  std::string read_path = "mmap";
  bool read_path_set = false;
  int64_t readahead_pages = 8;
  bool readahead_set = false;
  bool ranking_set = false;
  int64_t n = 0;
  int64_t k = 10;
  std::string ranking = "sum";
  int64_t budget = 0;
  int64_t client_budget = 0;
  uint64_t seed = 42;
  int64_t port = 0;
  std::string bind = "127.0.0.1";
  int64_t max_connections = 4096;
  int64_t loops = 0;
  int64_t workers = 0;
  bool shared_cache = true;
  int64_t max_pending = 1024;
  int64_t idle_timeout_ms = 60000;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: hdsky_serve (--data PATH | --demo NAME | --dataset-file "
      "FILE) [options]\n"
      "  --demo NAME          flights | bluenile | autos | route\n"
      "  --dataset-file FILE  packed block file (hdsky_pack); serves "
      "out-of-core\n"
      "  --buffer-pool-bytes N\n"
      "                       resident budget for --dataset-file "
      "(default 256 MiB)\n"
      "  --read-path P        mmap | pread page fetch for --dataset-file "
      "(default mmap)\n"
      "  --readahead-pages N  pread readahead depth, 0 disables "
      "(default 8)\n"
      "  --n N                demo dataset size\n"
      "  --k K                interface page size (default 10)\n"
      "  --ranking R          sum | lex:<attr_name>\n"
      "  --budget B           backend query budget (0 = unlimited)\n"
      "  --client-budget B    per-client-session budget (0 = unlimited)\n"
      "  --seed S             demo generator seed\n"
      "  --port P             TCP port, 0 = ephemeral (default 0)\n"
      "  --bind ADDR          IPv4 bind address (default 127.0.0.1)\n"
      "  --max-connections C  concurrent connections (default 4096)\n"
      "  --loops L            event-loop threads (0 = auto)\n"
      "  --workers W          backend workers (0 = auto)\n"
      "  --no-shared-cache    disable the cross-session query cache\n"
      "  --max-pending P      backend admission limit (default 1024)\n"
      "  --idle-timeout-ms T  idle eviction, 0 = never (default 60000)\n");
}

/// Strict integer parse: the whole token must be a number in [min, max].
bool ParseInt(const std::string& s, int64_t min, int64_t max, int64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end == s.c_str() || *end != '\0') return false;
  if (v < min || v > max) return false;
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto need_value = [&](std::string* dst) {
      if (i + 1 >= argc) return false;
      *dst = argv[++i];
      return true;
    };
    auto int_flag = [&](int64_t min, int64_t max, int64_t* dst) {
      std::string value;
      if (!need_value(&value) || !ParseInt(value, min, max, dst)) {
        std::fprintf(stderr, "invalid value for %s\n", flag.c_str());
        return false;
      }
      return true;
    };
    std::string value;
    if (flag == "--data" && need_value(&value)) {
      args->data = value;
    } else if (flag == "--demo" && need_value(&value)) {
      args->demo = value;
    } else if (flag == "--dataset-file" && need_value(&value)) {
      args->dataset_file = value;
    } else if (flag == "--buffer-pool-bytes") {
      if (!int_flag(1, INT64_MAX, &args->buffer_pool_bytes)) return false;
    } else if (flag == "--read-path" && need_value(&value)) {
      data::ReadPathKind kind;
      if (!data::ParseReadPathKind(value, &kind)) {
        std::fprintf(stderr, "invalid value for --read-path: %s\n",
                     value.c_str());
        return false;
      }
      args->read_path = value;
      args->read_path_set = true;
    } else if (flag == "--readahead-pages") {
      if (!int_flag(0, 1 << 16, &args->readahead_pages)) return false;
      args->readahead_set = true;
    } else if (flag == "--n") {
      if (!int_flag(1, INT64_MAX, &args->n)) return false;
    } else if (flag == "--k") {
      if (!int_flag(1, 1000000, &args->k)) return false;
    } else if (flag == "--ranking" && need_value(&value)) {
      args->ranking = value;
      args->ranking_set = true;
    } else if (flag == "--budget") {
      if (!int_flag(0, INT64_MAX, &args->budget)) return false;
    } else if (flag == "--client-budget") {
      if (!int_flag(0, INT64_MAX, &args->client_budget)) return false;
    } else if (flag == "--seed") {
      int64_t seed;
      if (!int_flag(0, INT64_MAX, &seed)) return false;
      args->seed = static_cast<uint64_t>(seed);
    } else if (flag == "--port") {
      if (!int_flag(0, 65535, &args->port)) return false;
    } else if (flag == "--bind" && need_value(&value)) {
      args->bind = value;
    } else if (flag == "--max-connections") {
      if (!int_flag(1, 65536, &args->max_connections)) return false;
    } else if (flag == "--loops") {
      if (!int_flag(0, 256, &args->loops)) return false;
    } else if (flag == "--workers") {
      if (!int_flag(0, 256, &args->workers)) return false;
    } else if (flag == "--no-shared-cache") {
      args->shared_cache = false;
    } else if (flag == "--max-pending") {
      if (!int_flag(0, 1000000, &args->max_pending)) return false;
    } else if (flag == "--idle-timeout-ms") {
      if (!int_flag(0, INT64_MAX, &args->idle_timeout_ms)) return false;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n",
                   flag.c_str());
      return false;
    }
  }
  const int sources = (!args->data.empty() ? 1 : 0) +
                      (!args->demo.empty() ? 1 : 0) +
                      (!args->dataset_file.empty() ? 1 : 0);
  if (sources != 1) {
    std::fprintf(stderr,
                 "exactly one of --data / --demo / --dataset-file is "
                 "required\n");
    return false;
  }
  if (args->buffer_pool_bytes > 0 && args->dataset_file.empty()) {
    std::fprintf(stderr, "--buffer-pool-bytes requires --dataset-file\n");
    return false;
  }
  if ((args->read_path_set || args->readahead_set) &&
      args->dataset_file.empty()) {
    std::fprintf(stderr,
                 "--read-path / --readahead-pages require "
                 "--dataset-file\n");
    return false;
  }
  if (!args->dataset_file.empty() && args->ranking_set) {
    std::fprintf(stderr,
                 "--ranking is baked into a packed --dataset-file at "
                 "pack time\n");
    return false;
  }
  return true;
}

common::Result<data::Table> LoadTable(const Args& args) {
  if (!args.data.empty()) return dataset::ReadCsv(args.data);
  if (args.demo == "flights") {
    dataset::FlightsOptions o;
    if (args.n > 0) o.num_tuples = args.n;
    o.seed = args.seed;
    return dataset::GenerateFlightsOnTime(o);
  }
  if (args.demo == "bluenile") {
    dataset::BlueNileOptions o;
    if (args.n > 0) o.num_tuples = args.n;
    o.seed = args.seed;
    return dataset::GenerateBlueNile(o);
  }
  if (args.demo == "autos") {
    dataset::YahooAutosOptions o;
    if (args.n > 0) o.num_tuples = args.n;
    o.seed = args.seed;
    return dataset::GenerateYahooAutos(o);
  }
  if (args.demo == "route") {
    dataset::GoogleFlightsOptions o;
    if (args.n > 0) o.num_flights = args.n;
    o.seed = args.seed;
    return dataset::GenerateRoute(o);
  }
  return common::Status::InvalidArgument("unknown demo '" + args.demo +
                                         "'");
}

common::Result<std::shared_ptr<interface::RankingPolicy>> MakeRanking(
    const Args& args, const data::Schema& schema) {
  if (args.ranking == "sum") return interface::MakeSumRanking();
  if (args.ranking.rfind("lex:", 0) == 0) {
    HDSKY_ASSIGN_OR_RETURN(const int attr,
                           schema.IndexOf(args.ranking.substr(4)));
    return interface::MakeLexicographicRanking({attr});
  }
  return common::Status::InvalidArgument("unknown ranking '" +
                                         args.ranking + "'");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 64;
  }

  data::Table table;  // local in-memory sources only
  std::unique_ptr<data::PagedTable> paged;  // --dataset-file only
  std::unique_ptr<interface::TopKInterface> iface;
  interface::TopKOptions topk;
  topk.k = static_cast<int>(args.k);
  topk.query_budget = args.budget;
  if (!args.dataset_file.empty()) {
    data::PagedTableOptions popts;
    if (args.buffer_pool_bytes > 0) {
      popts.buffer_pool_bytes =
          static_cast<size_t>(args.buffer_pool_bytes);
    }
    data::ParseReadPathKind(args.read_path, &popts.read_path);
    popts.readahead_pages = static_cast<int>(args.readahead_pages);
    auto paged_result = data::Table::OpenPaged(args.dataset_file, popts);
    if (!paged_result.ok()) {
      std::fprintf(stderr, "load: %s\n",
                   paged_result.status().ToString().c_str());
      return 1;
    }
    paged = std::move(paged_result).value();
    if (paged->pool()->budget_was_clamped()) {
      std::fprintf(
          stderr,
          "warning: --buffer-pool-bytes %llu below one page; effective "
          "budget %llu bytes\n",
          static_cast<unsigned long long>(
              paged->pool()->requested_budget_bytes()),
          static_cast<unsigned long long>(paged->pool()->budget_bytes()));
    }
    auto iface_result =
        interface::TopKInterface::CreatePaged(paged.get(), topk);
    if (!iface_result.ok()) {
      std::fprintf(stderr, "interface: %s\n",
                   iface_result.status().ToString().c_str());
      return 1;
    }
    iface = std::move(iface_result).value();
  } else {
    auto table_result = LoadTable(args);
    if (!table_result.ok()) {
      std::fprintf(stderr, "load: %s\n",
                   table_result.status().ToString().c_str());
      return 1;
    }
    table = std::move(table_result).value();

    auto ranking_result = MakeRanking(args, table.schema());
    if (!ranking_result.ok()) {
      std::fprintf(stderr, "ranking: %s\n",
                   ranking_result.status().ToString().c_str());
      return 1;
    }
    auto iface_result = interface::TopKInterface::Create(
        &table, std::move(ranking_result).value(), topk);
    if (!iface_result.ok()) {
      std::fprintf(stderr, "interface: %s\n",
                   iface_result.status().ToString().c_str());
      return 1;
    }
    iface = std::move(iface_result).value();
  }

  // TopKInterface with a static-order ranking is thread-safe (see
  // docs/concurrency.md); both built-in rankings qualify, so connections
  // may hit the backend concurrently.
  service::EventDrivenServer::Options server_options;
  server_options.bind_address = args.bind;
  server_options.port = static_cast<uint16_t>(args.port);
  server_options.max_connections = static_cast<int>(args.max_connections);
  server_options.per_client_query_budget = args.client_budget;
  server_options.num_loops = static_cast<int>(args.loops);
  server_options.num_workers = static_cast<int>(args.workers);
  server_options.shared_cache = args.shared_cache;
  server_options.max_pending_queries = static_cast<int>(args.max_pending);
  server_options.idle_timeout_ms = static_cast<int>(args.idle_timeout_ms);
  server_options.serialize_backend = false;
  auto server_result =
      service::EventDrivenServer::Start(iface.get(), server_options);
  if (!server_result.ok()) {
    std::fprintf(stderr, "serve: %s\n",
                 server_result.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<service::EventDrivenServer> server =
      std::move(server_result).value();

  if (paged != nullptr) {
    std::fprintf(stderr,
                 "dataset : %lld tuples (paged, ranking %s, pool %lld "
                 "bytes), %s\n",
                 static_cast<long long>(paged->num_rows()),
                 paged->ranking_name().c_str(),
                 static_cast<long long>(paged->pool()->budget_bytes()),
                 paged->schema().ToString().c_str());
  } else {
    std::fprintf(stderr, "dataset : %lld tuples, %s\n",
                 static_cast<long long>(table.num_rows()),
                 table.schema().ToString().c_str());
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
  std::fprintf(stderr,
               "cache   : %lld hits, %lld single-flight joins, %lld "
               "backend executions\n",
               static_cast<long long>(stats.cache_hits),
               static_cast<long long>(stats.singleflight_joins),
               static_cast<long long>(stats.backend_executions));
  const interface::AccessStats access = iface->stats();
  std::fprintf(stderr, "backend : %lld queries issued, %lld tuples returned\n",
               static_cast<long long>(access.queries_issued),
               static_cast<long long>(access.tuples_returned));
  if (paged != nullptr) {
    const data::BufferPool::Stats ps = paged->pool_stats();
    std::fprintf(stderr,
                 "pool    : %s path, %llu hits, %llu misses, %llu loads, "
                 "%llu evictions, %llu prefetched (%llu hit), %llu bytes "
                 "read, %llu resident bytes\n",
                 paged->pool()->read_path_name(),
                 static_cast<unsigned long long>(ps.hits),
                 static_cast<unsigned long long>(ps.misses),
                 static_cast<unsigned long long>(ps.loads),
                 static_cast<unsigned long long>(ps.evictions),
                 static_cast<unsigned long long>(ps.prefetch_loads),
                 static_cast<unsigned long long>(ps.prefetch_hits),
                 static_cast<unsigned long long>(ps.bytes_read),
                 static_cast<unsigned long long>(ps.resident_bytes));
  }
  return 0;
}
