// hdsky_discover — command-line skyline / sky-band discovery.
//
// Runs the paper's algorithms against a dataset loaded from a
// self-describing CSV (see dataset/csv.h), one of the built-in
// simulators, or a remote hdsky_serve instance. Prints a summary and
// optionally writes the discovered tuples as CSV.
//
//   hdsky_discover --data listings.csv --algorithm mq --k 50
//   hdsky_discover --demo bluenile --k 50 --out skyline.csv
//   hdsky_discover --demo flights --n 100000 --algorithm rq --budget 500
//   hdsky_discover --demo autos --band 2
//   hdsky_discover --connect 127.0.0.1:7447 --algorithm sq --cache
//   hdsky_discover --connect h1:7447,h2:7447,h3:7447 --federate union
//
// Flags:
//   --data PATH         input CSV (one source: --data | --demo |
//                       --dataset-file | --connect)
//   --demo NAME         flights | bluenile | autos | route
//   --dataset-file FILE packed block file written by hdsky_pack;
//                       discovery runs out-of-core through the buffer
//                       pool (ranking/order are baked into the file, so
//                       the local-generation flags are rejected)
//   --buffer-pool-bytes N
//                       resident-memory budget for --dataset-file
//                       (default 256 MiB)
//   --connect HOST:PORT[,HOST:PORT...]
//                       discover against remote hdsky_serve instance(s);
//                       more than one endpoint requires --federate
//   --federate MODE     union | join — federated discovery over every
//                       --connect endpoint (src/federation); sq/rq only
//   --join-attr NAME    entity key for --federate join
//   --round-budget N    paid queries per federation scheduling round
//                       (0 = auto)
//   --probe-attempts N  re-probes a transiently failed (DEGRADED)
//                       backend gets before it is declared DEAD and
//                       dropped (default 3; 0 drops on first failure)
//   --probe-backoff N   base backoff, in scheduling rounds, before the
//                       first re-probe; doubles per failed probe
//                       (default 2)
//   --federation-json PATH
//                       write the federation summary as benchmark JSON
//                       (gated in CI by scripts/compare_bench.py)
//   --dump-data PATH    write the generated/loaded dataset as CSV and
//                       exit (local sources; builds smoke ground truth)
//   --n N               demo dataset size (default: the paper's)
//   --algorithm A       auto | sq | rq | pq | mq | baseline  (default auto)
//   --k K               page size of the interface (default 10)
//   --ranking R         sum | lex:<attr_name>        (default sum)
//   --budget B          query budget; 0 = unlimited  (default 0)
//   --band H            discover the top-H sky band instead (RQ/PQ only)
//   --cache             stack a concurrent query cache over the source
//   --cache-file PATH   persist the cache: load at start, save (atomically)
//                       at exit; implies --cache
//   --journal DIR       durable session: write-ahead query journal +
//                       atomic checkpoints in DIR; re-running with the
//                       same DIR resumes a crashed/interrupted run with
//                       zero re-charged queries (docs/robustness.md).
//                       Works under --federate too: DIR holds one
//                       journal per backend plus the coordinator's
//                       round-barrier state, so a killed federated run
//                       resumes with zero replayed backend queries and
//                       byte-identical outputs (docs/federation.md,
//                       "Durable federation")
//   --sync-every N      journal group-fsync interval (default 1)
//   --checkpoint-every N  paid queries between checkpoints (default 256)
//   --trace PATH        write the anytime progress trace as CSV
//   --crash-point SPEC  die abruptly at a named recovery boundary
//                       (testing; see src/recovery/crash_point.h)
//   --out PATH          write discovered tuples as CSV
//   --seed S            generator seed for --demo
//   --trials T          run T independent trials (seeds S..S+T-1; --demo)
//   --threads W         workers for --trials (default $HDSKY_THREADS)
//
// The remote interface's page size, ranking, and budget are fixed by the
// server, so --k/--ranking/--budget (and the local-generation flags) are
// rejected alongside --connect instead of being silently ignored. Under
// --federate, --budget and --threads come back: they configure the
// federation coordinator (total query budget, fan-out workers), not the
// remote interfaces.
//
// Exit codes: 0 success (including anytime-partial results), 64 usage,
// 69 (EX_UNAVAILABLE) the backend is unreachable right now but nothing
// is broken — the server is shedding load, or a durable session being
// RESUMED cannot reach a backend it must replay against (retry later;
// the journal keeps every paid answer) — and 1 for everything else
// (protocol failure, bad data, I/O).
//
// SIGINT/SIGTERM interrupt the discovery cooperatively: the run unwinds
// as an anytime partial result, the journal (if any) takes a final
// checkpoint, and the partial skyline/outputs are still written.

#include <sys/stat.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/fs_util.h"
#include "core/baseline_crawler.h"
#include "core/mq_db_sky.h"
#include "core/pq_db_sky.h"
#include "core/rq_db_sky.h"
#include "core/skyband_discovery.h"
#include "core/sq_db_sky.h"
#include "data/paged_table.h"
#include "dataset/blue_nile.h"
#include "dataset/csv.h"
#include "dataset/flights_on_time.h"
#include "dataset/google_flights.h"
#include "dataset/yahoo_autos.h"
#include "federation/federated_discovery.h"
#include "interface/caching_database.h"
#include "interface/ranking.h"
#include "interface/top_k_interface.h"
#include "net/socket.h"
#include "recovery/checkpoint.h"
#include "recovery/crash_point.h"
#include "recovery/journaling_database.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "service/remote_database.h"

namespace {

using namespace hdsky;

/// Set by SIGINT/SIGTERM; polled by DiscoveryOptions::interrupt so the
/// run unwinds as an anytime partial result instead of dying mid-query.
std::atomic<bool> g_interrupt{false};

void HandleSignal(int) { g_interrupt.store(true); }

void InstallSignalHandlers() {
  struct sigaction sa = {};
  sa.sa_handler = HandleSignal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

struct Args {
  std::string data;
  std::string demo;
  std::string dataset_file;
  int64_t buffer_pool_bytes = 0;  // 0 = PagedTableOptions default
  std::string read_path = "mmap";
  int64_t readahead_pages = 8;
  std::string connect;
  std::vector<std::string> connects;  // --connect split on commas
  std::string federate;               // "" | "union" | "join"
  std::string join_attr;
  int64_t round_budget = 0;
  int64_t probe_attempts = 3;
  int64_t probe_backoff = 2;
  std::string federation_json;
  std::string dump_data;
  int64_t n = 0;
  std::string algorithm = "auto";
  int64_t k = 10;
  std::string ranking = "sum";
  int64_t budget = 0;
  int64_t band = 0;
  bool cache = false;
  std::string cache_file;
  std::string journal;
  int64_t sync_every = 1;
  int64_t checkpoint_every = 256;
  std::string trace;
  std::string crash_point;
  std::string out;
  uint64_t seed = 42;
  int64_t trials = 1;
  int64_t threads = 0;  // 0 = take $HDSKY_THREADS
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: hdsky_discover (--data PATH | --demo NAME | --dataset-file "
      "FILE | --connect HOST:PORT[,...]) [options]\n"
      "  --demo NAME         flights | bluenile | autos | route\n"
      "  --dataset-file FILE packed block file (hdsky_pack); runs "
      "out-of-core\n"
      "  --buffer-pool-bytes N\n"
      "                      resident budget for --dataset-file (default "
      "256 MiB)\n"
      "  --read-path P       mmap | pread page fetch for --dataset-file "
      "(default mmap)\n"
      "  --readahead-pages N pread readahead depth, 0 disables (default "
      "8)\n"
      "  --connect HOST:PORT[,HOST:PORT...]\n"
      "                      discover against remote hdsky_serve(s)\n"
      "  --federate MODE     union | join over every --connect endpoint\n"
      "  --join-attr NAME    entity key for --federate join\n"
      "  --round-budget N    paid queries per federation round (0 = "
      "auto)\n"
      "  --probe-attempts N  re-probes before a failed backend is "
      "dropped (default 3)\n"
      "  --probe-backoff N   rounds before the first re-probe "
      "(default 2)\n"
      "  --federation-json PATH  write the federation benchmark JSON\n"
      "  --dump-data PATH    write the local dataset as CSV and exit\n"
      "  --n N               demo dataset size\n"
      "  --algorithm A       auto | sq | rq | pq | mq | baseline\n"
      "  --k K               interface page size (default 10)\n"
      "  --ranking R         sum | lex:<attr_name>\n"
      "  --budget B          query budget (0 = unlimited)\n"
      "  --band H            discover the top-H sky band (RQ/PQ)\n"
      "  --cache             stack a concurrent query cache\n"
      "  --cache-file PATH   persist the cache across runs (implies "
      "--cache)\n"
      "  --journal DIR       durable session: journal + checkpoints; "
      "rerun to resume\n"
      "  --sync-every N      journal group-fsync interval (default 1)\n"
      "  --checkpoint-every N  paid queries between checkpoints "
      "(default 256)\n"
      "  --trace PATH        write the anytime progress trace as CSV\n"
      "  --crash-point SPEC  die at a named recovery boundary (testing)\n"
      "  --out PATH          write discovered tuples as CSV\n"
      "  --seed S            demo generator seed\n"
      "  --trials T          independent trials, seeds S..S+T-1 (--demo)\n"
      "  --threads W         workers for --trials (default "
      "$HDSKY_THREADS)\n");
}

/// Strict integer parse: the whole token must be a base-10 number in
/// [min, max]. "12x", "", " 3", and out-of-range values all fail.
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
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    seen.insert(flag);
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
    } else if (flag == "--readahead-pages") {
      if (!int_flag(0, 1 << 16, &args->readahead_pages)) return false;
    } else if (flag == "--connect" && need_value(&value)) {
      args->connect = value;
      args->connects.clear();
      // Comma-separated endpoints; each must parse as HOST:PORT.
      std::string rest = value;
      while (!rest.empty()) {
        const size_t comma = rest.find(',');
        const std::string endpoint = rest.substr(0, comma);
        rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
        std::string host;
        uint16_t port = 0;
        const common::Status s =
            net::ParseHostPort(endpoint, &host, &port);
        if (!s.ok()) {
          std::fprintf(stderr, "invalid --connect endpoint '%s': %s\n",
                       endpoint.c_str(), s.ToString().c_str());
          return false;
        }
        args->connects.push_back(endpoint);
      }
      if (args->connects.empty()) {
        std::fprintf(stderr, "empty --connect\n");
        return false;
      }
    } else if (flag == "--federate" && need_value(&value)) {
      if (value != "union" && value != "join") {
        std::fprintf(stderr, "--federate takes union | join\n");
        return false;
      }
      args->federate = value;
    } else if (flag == "--join-attr" && need_value(&value)) {
      args->join_attr = value;
    } else if (flag == "--round-budget") {
      if (!int_flag(0, INT64_MAX, &args->round_budget)) return false;
    } else if (flag == "--probe-attempts") {
      if (!int_flag(0, INT64_MAX, &args->probe_attempts)) return false;
    } else if (flag == "--probe-backoff") {
      if (!int_flag(1, 1 << 20, &args->probe_backoff)) return false;
    } else if (flag == "--federation-json" && need_value(&value)) {
      args->federation_json = value;
    } else if (flag == "--dump-data" && need_value(&value)) {
      args->dump_data = value;
    } else if (flag == "--n") {
      if (!int_flag(1, INT64_MAX, &args->n)) return false;
    } else if (flag == "--algorithm" && need_value(&value)) {
      args->algorithm = value;
    } else if (flag == "--k") {
      if (!int_flag(1, 1000000, &args->k)) return false;
    } else if (flag == "--ranking" && need_value(&value)) {
      args->ranking = value;
    } else if (flag == "--budget") {
      if (!int_flag(0, INT64_MAX, &args->budget)) return false;
    } else if (flag == "--band") {
      if (!int_flag(1, 1000000, &args->band)) return false;
    } else if (flag == "--cache") {
      args->cache = true;
    } else if (flag == "--cache-file" && need_value(&value)) {
      args->cache_file = value;
      args->cache = true;
    } else if (flag == "--journal" && need_value(&value)) {
      args->journal = value;
    } else if (flag == "--sync-every") {
      if (!int_flag(1, 1000000, &args->sync_every)) return false;
    } else if (flag == "--checkpoint-every") {
      if (!int_flag(1, INT64_MAX, &args->checkpoint_every)) return false;
    } else if (flag == "--trace" && need_value(&value)) {
      args->trace = value;
    } else if (flag == "--crash-point" && need_value(&value)) {
      args->crash_point = value;
    } else if (flag == "--out" && need_value(&value)) {
      args->out = value;
    } else if (flag == "--seed") {
      int64_t seed;
      if (!int_flag(0, INT64_MAX, &seed)) return false;
      args->seed = static_cast<uint64_t>(seed);
    } else if (flag == "--trials") {
      if (!int_flag(1, 1000000, &args->trials)) return false;
    } else if (flag == "--threads") {
      if (!int_flag(1, 4096, &args->threads)) return false;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n",
                   flag.c_str());
      return false;
    }
  }
  const int sources = (!args->data.empty() ? 1 : 0) +
                      (!args->demo.empty() ? 1 : 0) +
                      (!args->dataset_file.empty() ? 1 : 0) +
                      (!args->connect.empty() ? 1 : 0);
  if (sources != 1) {
    std::fprintf(stderr,
                 "exactly one of --data / --demo / --dataset-file / "
                 "--connect is required\n");
    return false;
  }
  for (const char* pool_flag :
       {"--buffer-pool-bytes", "--read-path", "--readahead-pages"}) {
    if (seen.count(pool_flag) && args->dataset_file.empty()) {
      std::fprintf(stderr, "%s requires --dataset-file\n", pool_flag);
      return false;
    }
  }
  if (!args->dataset_file.empty()) {
    // Generation and ranking are baked into the file at pack time.
    for (const char* baked :
         {"--n", "--seed", "--ranking", "--trials", "--dump-data"}) {
      if (seen.count(baked)) {
        std::fprintf(stderr,
                     "%s configures local generation/ranking; a packed "
                     "--dataset-file fixes these at pack time\n",
                     baked);
        return false;
      }
    }
  }
  if (!args->federate.empty() && args->connect.empty()) {
    std::fprintf(stderr, "--federate requires --connect\n");
    return false;
  }
  if (args->connects.size() > 1 && args->federate.empty()) {
    std::fprintf(stderr,
                 "multiple --connect endpoints need --federate "
                 "union|join\n");
    return false;
  }
  if (!args->federate.empty()) {
    if (args->federate == "join" && args->join_attr.empty()) {
      std::fprintf(stderr, "--federate join needs --join-attr\n");
      return false;
    }
    if (args->federate == "union" && !args->join_attr.empty()) {
      std::fprintf(stderr, "--join-attr only applies to --federate "
                           "join\n");
      return false;
    }
    if (args->algorithm != "auto" && args->algorithm != "sq" &&
        args->algorithm != "rq") {
      std::fprintf(stderr,
                   "--federate drives the checkpointable sq/rq "
                   "algorithms only (got --algorithm %s)\n",
                   args->algorithm.c_str());
      return false;
    }
    for (const char* single_site :
         {"--band", "--cache", "--cache-file", "--trace"}) {
      if (seen.count(single_site)) {
        std::fprintf(stderr, "%s is a single-site feature; it cannot be "
                             "combined with --federate\n",
                     single_site);
        return false;
      }
    }
  } else {
    for (const char* federate_only :
         {"--round-budget", "--federation-json", "--probe-attempts",
          "--probe-backoff"}) {
      if (seen.count(federate_only)) {
        std::fprintf(stderr, "%s requires --federate\n", federate_only);
        return false;
      }
    }
  }
  if (!args->connect.empty()) {
    // The server controls the interface; under --federate, --budget and
    // --threads configure the coordinator instead and stay legal.
    std::vector<const char*> local_only = {"--n", "--k", "--ranking",
                                           "--seed", "--trials"};
    if (args->federate.empty()) {
      local_only.push_back("--budget");
      local_only.push_back("--threads");
    }
    for (const char* flag : local_only) {
      if (seen.count(flag)) {
        std::fprintf(stderr,
                     "%s configures a local interface; the server "
                     "controls it under --connect\n",
                     flag);
        return false;
      }
    }
    if (seen.count("--dump-data")) {
      std::fprintf(stderr,
                   "--dump-data exports a locally generated dataset; it "
                   "cannot be combined with --connect\n");
      return false;
    }
  }
  if (args->trials > 1 && args->demo.empty()) {
    std::fprintf(stderr, "--trials needs --demo (seeds vary per trial)\n");
    return false;
  }
  if (args->trials > 1) {
    for (const char* single_run :
         {"--journal", "--cache-file", "--trace", "--dump-data"}) {
      if (seen.count(single_run)) {
        std::fprintf(stderr,
                     "%s describes one durable run; it cannot be combined "
                     "with --trials\n",
                     single_run);
        return false;
      }
    }
  }
  if (args->journal.empty()) {
    for (const char* journal_only : {"--sync-every", "--checkpoint-every"}) {
      if (seen.count(journal_only)) {
        std::fprintf(stderr, "%s requires --journal\n", journal_only);
        return false;
      }
    }
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
  if (args.ranking == "sum") {
    return interface::MakeSumRanking();
  }
  if (args.ranking.rfind("lex:", 0) == 0) {
    const std::string name = args.ranking.substr(4);
    HDSKY_ASSIGN_OR_RETURN(const int attr, schema.IndexOf(name));
    return interface::MakeLexicographicRanking({attr});
  }
  return common::Status::InvalidArgument("unknown ranking '" +
                                         args.ranking + "'");
}

/// The algorithm Run() will actually dispatch to, as a stable name for
/// journal state blobs ("auto" resolves; --band picks its variant from
/// the schema). A resumed journal is rejected when this changed.
std::string ResolveAlgorithm(const Args& args, const data::Schema& schema) {
  if (args.band > 0) {
    const bool any_range =
        !schema.RankingAttributesWithInterface(data::InterfaceType::kRQ)
             .empty();
    return any_range ? "band-rq" : "band-pq";
  }
  return args.algorithm == "auto" ? "mq" : args.algorithm;
}

/// Only SQ/RQ/PQ expose checkpointable frontiers; the other algorithms
/// resume by full replay through the journal (free but linear).
bool FrontierCapable(const std::string& resolved_algorithm) {
  return resolved_algorithm == "sq" || resolved_algorithm == "rq" ||
         resolved_algorithm == "pq";
}

// Every algorithm programs against HiddenDatabase, so the same Run serves
// local TopKInterface, cached, journaled, and remote sources.
common::Result<core::DiscoveryResult> Run(
    const Args& args, interface::HiddenDatabase* iface,
    const core::DiscoveryOptions& common) {
  if (args.band > 0) {
    core::SkybandOptions opts;
    opts.common = common;
    opts.band = static_cast<int>(args.band);
    // Pick by interface mix: PQ-only schemas use the PQ extension.
    const bool any_range =
        !iface->schema()
             .RankingAttributesWithInterface(data::InterfaceType::kRQ)
             .empty();
    return any_range ? core::RqDbSkyband(iface, opts)
                     : core::PqDbSkyband(iface, opts);
  }
  const std::string& a = args.algorithm;
  if (a == "auto" || a == "mq") {
    core::MqDbSkyOptions opts;
    opts.common = common;
    return core::MqDbSky(iface, opts);
  }
  if (a == "sq") {
    core::SqDbSkyOptions opts;
    opts.common = common;
    return core::SqDbSky(iface, opts);
  }
  if (a == "rq") {
    core::RqDbSkyOptions opts;
    opts.common = common;
    return core::RqDbSky(iface, opts);
  }
  if (a == "pq") {
    core::PqDbSkyOptions opts;
    opts.common = common;
    return core::PqDbSky(iface, opts);
  }
  if (a == "baseline") {
    core::CrawlOptions opts;
    opts.common = common;
    return core::BaselineSkyline(iface, opts);
  }
  return common::Status::InvalidArgument("unknown algorithm '" + a + "'");
}

// Fans --trials independent discoveries (seed, seed+1, ...) across
// --threads workers. Each trial owns its table, ranking, and interface,
// so the per-trial numbers are identical at every worker count.
int RunTrials(const Args& args) {
  struct Trial {
    bool ok = false;
    std::string error;
    int64_t cost = 0;
    size_t found = 0;
    bool complete = false;
  };
  const int threads = args.threads > 0 ? static_cast<int>(args.threads)
                                       : runtime::EnvThreadCount();
  std::vector<Trial> trials(static_cast<size_t>(args.trials));
  runtime::ParallelFor(threads, 0, args.trials, [&](int64_t i) {
    Args trial_args = args;
    trial_args.seed = args.seed + static_cast<uint64_t>(i);
    Trial& out = trials[static_cast<size_t>(i)];
    auto table = LoadTable(trial_args);
    if (!table.ok()) {
      out.error = table.status().ToString();
      return;
    }
    auto ranking = MakeRanking(trial_args, table->schema());
    if (!ranking.ok()) {
      out.error = ranking.status().ToString();
      return;
    }
    interface::TopKOptions topk;
    topk.k = static_cast<int>(trial_args.k);
    topk.query_budget = trial_args.budget;
    auto iface = interface::TopKInterface::Create(
        &*table, std::move(ranking).value(), topk);
    if (!iface.ok()) {
      out.error = iface.status().ToString();
      return;
    }
    core::DiscoveryOptions common;
    common.interrupt = [] { return g_interrupt.load(); };
    auto result = Run(trial_args, iface->get(), common);
    if (!result.ok()) {
      out.error = result.status().ToString();
      return;
    }
    out.ok = true;
    out.cost = result->query_cost;
    out.found = result->skyline.size();
    out.complete = result->complete;
  });

  int64_t total_cost = 0;
  for (int64_t i = 0; i < args.trials; ++i) {
    const Trial& t = trials[static_cast<size_t>(i)];
    if (!t.ok) {
      std::fprintf(stderr, "trial %lld (seed %llu): %s\n",
                   static_cast<long long>(i),
                   static_cast<unsigned long long>(
                       args.seed + static_cast<uint64_t>(i)),
                   t.error.c_str());
      return 1;
    }
    std::printf("trial %lld: seed %llu  found %zu  queries %lld%s\n",
                static_cast<long long>(i),
                static_cast<unsigned long long>(
                    args.seed + static_cast<uint64_t>(i)),
                t.found, static_cast<long long>(t.cost),
                t.complete ? "" : "  (partial)");
    total_cost += t.cost;
  }
  // stdout stays byte-identical at every worker count; the worker note
  // goes to stderr.
  std::printf("mean queries over %lld trials: %.2f\n",
              static_cast<long long>(args.trials),
              static_cast<double>(total_cost) /
                  static_cast<double>(args.trials));
  std::fprintf(stderr, "(ran on %d worker%s)\n", threads,
               threads == 1 ? "" : "s");
  return 0;
}

/// Loads (or mints and persists) the session id a durable remote session
/// presents to the server. Reusing the id across restarts is what lets
/// the server's per-session replay cache deduplicate a re-sent query
/// instead of charging for it again.
common::Result<uint64_t> LoadOrCreateSessionId(const std::string& dir) {
  const std::string path = dir + "/SESSION";
  auto existing = common::ReadFileToString(path);
  if (existing.ok()) {
    std::string text = std::move(existing).value();
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
      text.pop_back();
    }
    char* end = nullptr;
    errno = 0;
    const unsigned long long id = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || end == text.c_str() || *end != '\0' || id == 0) {
      return common::Status::IOError(path + ": malformed session id");
    }
    return static_cast<uint64_t>(id);
  }
  if (!existing.status().IsNotFound()) return existing.status();
  std::random_device rd;
  uint64_t id = (static_cast<uint64_t>(rd()) << 32) ^ rd();
  if (id == 0) id = 1;
  HDSKY_RETURN_IF_ERROR(
      common::AtomicWriteFile(path, std::to_string(id) + "\n"));
  return id;
}

/// Writes the anytime progress trace ("queries,skyline" per line).
common::Status WriteTrace(const core::ProgressTrace& trace,
                          const std::string& path) {
  std::string csv = "queries,skyline\n";
  for (const core::ProgressPoint& p : trace) {
    csv += std::to_string(p.queries_issued) + "," +
           std::to_string(p.skyline_discovered) + "\n";
  }
  return common::AtomicWriteFile(path, csv);
}

/// Exit code for a failed connect/discovery: 69 (EX_UNAVAILABLE) when the
/// server is shedding load — the caller should retry later, nothing is
/// broken — and 1 for protocol or local failures.
int FailureExit(const common::Status& s, const char* what) {
  std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
  if (s.IsUnavailable()) {
    std::fprintf(stderr,
                 "%s: the server is shedding load (rate limited / at "
                 "capacity), not failing; retry later\n",
                 what);
    return 69;
  }
  return 1;
}

/// Federation summary in google-benchmark JSON shape, so
/// scripts/compare_bench.py can gate the prune ratio and coverage in CI.
common::Status WriteFederationJson(const Args& args,
                                   const federation::FederatedResult& fr,
                                   double elapsed_ms) {
  const int64_t skyline_size =
      args.federate == "join" ? static_cast<int64_t>(fr.joined.size())
                              : static_cast<int64_t>(fr.skyline.size());
  const double denom =
      static_cast<double>(fr.total_paid + fr.total_pruned);
  const double prune_ratio =
      denom > 0 ? static_cast<double>(fr.total_pruned) / denom : 0.0;
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"context\": {\"executable\": \"hdsky_discover\"},\n"
      "  \"benchmarks\": [\n"
      "    {\n"
      "      \"name\": \"federation/%s/backends:%zu\",\n"
      "      \"run_type\": \"iteration\",\n"
      "      \"iterations\": 1,\n"
      "      \"real_time\": %.3f,\n"
      "      \"cpu_time\": %.3f,\n"
      "      \"time_unit\": \"ms\",\n"
      "      \"backends\": %zu,\n"
      "      \"paid_queries\": %lld,\n"
      "      \"pruned_queries\": %lld,\n"
      "      \"prune_ratio\": %.6f,\n"
      "      \"probe_queries\": %lld,\n"
      "      \"skyline_size\": %lld,\n"
      "      \"rounds\": %lld,\n"
      "      \"complete\": %d,\n"
      "      \"partial_coverage\": %d\n"
      "    }\n"
      "  ]\n"
      "}\n",
      args.federate.c_str(), fr.backends.size(), elapsed_ms, elapsed_ms,
      fr.backends.size(), static_cast<long long>(fr.total_paid),
      static_cast<long long>(fr.total_pruned), prune_ratio,
      static_cast<long long>(fr.probe_queries),
      static_cast<long long>(skyline_size),
      static_cast<long long>(fr.rounds), fr.complete ? 1 : 0,
      fr.partial_coverage ? 1 : 0);
  return common::AtomicWriteFile(args.federation_json, buf);
}

/// Federated discovery over every --connect endpoint: connect to each,
/// run the round-scheduled coordinator, report, and write the optional
/// benchmark JSON / skyline CSV. Under --journal the session is durable:
/// DIR/backend-<i> holds each backend's write-ahead journal (plus the
/// persisted session id the server's replay cache is keyed by) and
/// DIR/STATE the coordinator's latest round-barrier checkpoint, so a
/// killed run resumed with the same flags replays its paid prefix for
/// free and produces byte-identical outputs.
int RunFederation(const Args& args) {
  const bool durable = !args.journal.empty();
  bool resuming = false;
  if (durable) {
    if (::mkdir(args.journal.c_str(), 0777) != 0 && errno != EEXIST) {
      std::fprintf(stderr, "journal: mkdir %s: %s\n", args.journal.c_str(),
                   std::strerror(errno));
      return 1;
    }
    // A coordinator checkpoint on disk means a previous run paid for
    // queries this one is expected to replay; losing a backend now is
    // "come back when the site is up" (69), not a fresh-run failure.
    struct stat st;
    const std::string state_path =
        args.journal + "/" + recovery::kFederationStateFileName;
    resuming = ::stat(state_path.c_str(), &st) == 0;
  }

  std::vector<std::unique_ptr<service::RemoteHiddenDatabase>> remotes;
  std::vector<std::unique_ptr<recovery::JournalingDatabase>> journals;
  std::vector<interface::HiddenDatabase*> backends;
  for (size_t i = 0; i < args.connects.size(); ++i) {
    const std::string& endpoint = args.connects[i];
    std::string host;
    uint16_t port = 0;
    const common::Status parsed =
        net::ParseHostPort(endpoint, &host, &port);
    if (!parsed.ok()) {  // ParseArgs validated; defensive
      std::fprintf(stderr, "connect: %s\n", parsed.ToString().c_str());
      return 64;
    }
    service::RemoteHiddenDatabase::Options ropts;
    std::string backend_dir;
    if (durable) {
      backend_dir = args.journal + "/backend-" + std::to_string(i);
      if (::mkdir(backend_dir.c_str(), 0777) != 0 && errno != EEXIST) {
        std::fprintf(stderr, "journal: mkdir %s: %s\n", backend_dir.c_str(),
                     std::strerror(errno));
        return 1;
      }
      auto session_id = LoadOrCreateSessionId(backend_dir);
      if (!session_id.ok()) {
        std::fprintf(stderr, "journal: %s\n",
                     session_id.status().ToString().c_str());
        return 1;
      }
      ropts.session_id = *session_id;
    }
    auto remote = service::RemoteHiddenDatabase::Connect(host, port, ropts);
    if (!remote.ok()) {
      if (resuming && (remote.status().IsIOError() ||
                       remote.status().IsUnavailable())) {
        std::fprintf(stderr, "connect %s: %s\n", endpoint.c_str(),
                     remote.status().ToString().c_str());
        std::fprintf(stderr,
                     "connect %s: backend unreachable while resuming a "
                     "durable federated session; the journals keep every "
                     "paid answer — retry when the backend is back\n",
                     endpoint.c_str());
        return 69;
      }
      return FailureExit(remote.status(),
                         ("connect " + endpoint).c_str());
    }
    std::fprintf(stderr, "remote  : %s, %s, k=%d\n", endpoint.c_str(),
                 (*remote)->schema().ToString().c_str(), (*remote)->k());
    if (durable) {
      recovery::JournalingDatabase::Options jopts;
      jopts.sync_every = static_cast<int>(args.sync_every);
      jopts.checkpoint_every = args.checkpoint_every;
      // Between queries every point is consistent for pure replay; the
      // coordinator's own frontier state lives in DIR/STATE, not here.
      jopts.auto_checkpoint = true;
      recovery::SessionState alg_only;
      alg_only.algorithm = args.algorithm;
      jopts.auto_checkpoint_state = recovery::EncodeSessionState(alg_only);
      service::RemoteHiddenDatabase* r = remote->get();
      jopts.seq_provider = [r] { return r->next_seq(); };
      auto journal = recovery::JournalingDatabase::Open(remote->get(),
                                                        backend_dir, jopts);
      if (!journal.ok()) {
        std::fprintf(stderr, "journal: %s: %s\n", endpoint.c_str(),
                     journal.status().ToString().c_str());
        return 1;
      }
      // Continue the wire sequence where the journal left off; a dangling
      // intent re-sends under its original number and hits the server's
      // replay cache instead of the budget.
      (*remote)->set_next_seq((*journal)->next_wire_seq());
      if ((*journal)->resumed()) {
        std::fprintf(stderr,
                     "journal : %s resuming (%lld journaled answers, "
                     "epoch %lld)\n",
                     endpoint.c_str(),
                     static_cast<long long>((*journal)->entries()),
                     static_cast<long long>((*journal)->epoch()));
      }
      backends.push_back(journal->get());
      journals.push_back(std::move(journal).value());
    } else {
      backends.push_back(remote->get());
    }
    remotes.push_back(std::move(remote).value());
  }

  federation::FederationOptions fopts;
  fopts.mode = args.federate == "join"
                   ? federation::FederationOptions::Mode::kJoin
                   : federation::FederationOptions::Mode::kUnion;
  fopts.total_budget = args.budget;
  fopts.round_budget = args.round_budget;
  fopts.num_threads = static_cast<int>(args.threads);
  fopts.algorithm = args.algorithm;
  fopts.join_attr = args.join_attr;
  fopts.max_probe_attempts = args.probe_attempts;
  fopts.probe_backoff_rounds = args.probe_backoff;
  fopts.interrupt = [] { return g_interrupt.load(); };

  recovery::FederationSessionState restored;
  if (durable) {
    if (resuming) {
      auto loaded = recovery::LoadFederationState(args.journal);
      if (!loaded.ok()) {
        std::fprintf(stderr, "journal: %s\n",
                     loaded.status().ToString().c_str());
        return 1;
      }
      restored = std::move(loaded).value();
      fopts.resume_state = &restored;
      std::fprintf(stderr,
                   "journal : resuming federated session at round %lld\n",
                   static_cast<long long>(restored.rounds));
    }
    fopts.on_round_checkpoint =
        [&args, &journals](const recovery::FederationSessionState& s)
        -> common::Status {
      // The backend journals must be durable before the coordinator
      // state that presumes their payments (a no-op at --sync-every 1).
      for (auto& j : journals) HDSKY_RETURN_IF_ERROR(j->Sync());
      return recovery::SaveFederationState(args.journal, s);
    };
    fopts.on_backend_reprobe = [&journals](size_t i) {
      return journals[i]->ResolvePending();
    };
  }

  const auto start = std::chrono::steady_clock::now();
  auto result =
      federation::RunFederatedDiscovery(backends, fopts, args.connects);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  const bool interrupted = g_interrupt.load();
  if (durable) {
    // Final compaction, on success AND on interrupt/failure: every paid
    // answer (torn-round payments included) folds into each backend's
    // snapshot, and the last consistent round barrier in DIR/STATE is
    // what a rerun resumes from.
    recovery::SessionState alg_only;
    alg_only.algorithm = args.algorithm;
    const std::string blob = recovery::EncodeSessionState(alg_only);
    for (size_t i = 0; i < journals.size(); ++i) {
      const common::Status s = journals[i]->Finish(blob);
      if (!s.ok()) {
        std::fprintf(stderr, "journal: %s: final checkpoint: %s\n",
                     args.connects[i].c_str(), s.ToString().c_str());
      }
    }
  }
  if (!result.ok()) return FailureExit(result.status(), "federation");
  const federation::FederatedResult& fr = *result;

  std::printf("federate: %s over %zu backends\n", args.federate.c_str(),
              backends.size());
  if (args.federate == "join") {
    std::printf("found   : %zu joined skyline entities%s\n",
                fr.joined.size(),
                fr.join_exact ? "" : "  (approximate: a probe overflowed)");
  } else {
    std::printf("found   : %zu skyline groups\n", fr.skyline.size());
  }
  std::printf("queries : %lld paid, %lld answered free from the shared "
              "index, %lld rounds\n",
              static_cast<long long>(fr.total_paid),
              static_cast<long long>(fr.total_pruned),
              static_cast<long long>(fr.rounds));
  if (fr.probe_queries > 0) {
    std::printf("probes  : %lld join probes (included in paid)\n",
                static_cast<long long>(fr.probe_queries));
  }
  if (fr.partial_coverage) {
    std::printf("coverage: PARTIAL — a backend failed or ran out of "
                "budget; tuples only it holds may be missing\n");
  }
  for (size_t i = 0; i < fr.backends.size(); ++i) {
    const federation::BackendReport& r = fr.backends[i];
    std::fprintf(stderr,
                 "backend : %s  paid %lld  pruned %lld  confirmed %lld  "
                 "rounds %lld  health %s  recovered %lld  %s%s\n",
                 r.name.c_str(), static_cast<long long>(r.paid_queries),
                 static_cast<long long>(r.pruned_queries),
                 static_cast<long long>(r.confirmed),
                 static_cast<long long>(r.rounds),
                 federation::BackendHealthName(r.health),
                 static_cast<long long>(r.recoveries),
                 r.failed ? "FAILED: " : (r.complete ? "complete" : "stopped"),
                 r.failed ? r.error.c_str() : "");
    if (i < remotes.size()) {
      const service::RemoteHiddenDatabase::Stats& t = remotes[i]->stats();
      std::fprintf(stderr,
                   "network : %s  %lld remote queries, %lld retries, "
                   "%lld reconnects, %lld rate-limited, %lld failed, "
                   "%lld B out, %lld B in, %lld ms backoff\n",
                   r.name.c_str(),
                   static_cast<long long>(t.remote_queries),
                   static_cast<long long>(t.retries),
                   static_cast<long long>(t.reconnects),
                   static_cast<long long>(t.rate_limited),
                   static_cast<long long>(t.failed_queries),
                   static_cast<long long>(t.bytes_sent),
                   static_cast<long long>(t.bytes_received),
                   static_cast<long long>(t.backoff_ms));
    }
    if (i < journals.size()) {
      const recovery::JournalingDatabase::Stats& js = journals[i]->stats();
      std::fprintf(stderr,
                   "journal : %s  %lld replayed, %lld paid, %lld errors, "
                   "epoch %lld\n",
                   r.name.c_str(), static_cast<long long>(js.replayed),
                   static_cast<long long>(js.paid),
                   static_cast<long long>(js.errors),
                   static_cast<long long>(journals[i]->epoch()));
    }
  }
  if (interrupted && durable) {
    std::fprintf(stderr,
                 "interrupted: rerun with --journal %s to resume\n",
                 args.journal.c_str());
  }

  if (!args.federation_json.empty()) {
    // A durable session's outputs must be byte-identical between an
    // uninterrupted run and a crash-then-resume (the chaos smoke diffs
    // them), so the one nondeterministic field is pinned under --journal.
    const common::Status s =
        WriteFederationJson(args, fr, durable ? 0.0 : elapsed_ms);
    if (!s.ok()) {
      std::fprintf(stderr, "federation-json: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("json    : %s\n", args.federation_json.c_str());
  }

  if (!args.out.empty()) {
    if (args.federate == "join") {
      std::fprintf(stderr,
                   "--out writes union-mode representative tuples; join "
                   "mode has no full tuples to write\n");
      return 64;
    }
    // Representatives are full tuples of their source backend, so one CSV
    // needs every backend to share the full schema.
    for (size_t i = 1; i < remotes.size(); ++i) {
      if (remotes[i]->schema().ToString() !=
          remotes[0]->schema().ToString()) {
        std::fprintf(stderr,
                     "--out needs identical backend schemas (%s differs "
                     "from %s)\n",
                     args.connects[i].c_str(), args.connects[0].c_str());
        return 1;
      }
    }
    data::Table out(remotes[0]->schema());
    out.Reserve(static_cast<int64_t>(fr.skyline.size()));
    for (const federation::UnionGroup& g : fr.skyline) {
      const common::Status s = out.Append(g.representative);
      if (!s.ok()) {
        std::fprintf(stderr, "collect: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    const common::Status s = dataset::WriteCsv(out, args.out);
    if (!s.ok()) {
      std::fprintf(stderr, "write: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote   : %s\n", args.out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 64;
  }

  InstallSignalHandlers();
  recovery::ArmCrashPointFromEnv();
  if (!args.crash_point.empty()) recovery::ArmCrashPoint(args.crash_point);

  if (args.trials > 1) return RunTrials(args);
  if (!args.federate.empty()) return RunFederation(args);

  // Exactly one of these owners is populated; `source` aliases it.
  data::Table table;  // local sources only
  std::unique_ptr<data::PagedTable> paged;  // --dataset-file only
  std::unique_ptr<interface::TopKInterface> local;
  std::unique_ptr<service::RemoteHiddenDatabase> remote;
  interface::HiddenDatabase* source = nullptr;

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
    std::printf("dataset : %lld tuples (paged %s, ranking %s, pool %lld "
                "bytes), %s\n",
                static_cast<long long>(paged->num_rows()),
                paged->pool()->read_path_name(),
                paged->ranking_name().c_str(),
                static_cast<long long>(paged->pool()->budget_bytes()),
                paged->schema().ToString().c_str());
    interface::TopKOptions topk;
    topk.k = static_cast<int>(args.k);
    topk.query_budget = args.budget;
    auto iface_result =
        interface::TopKInterface::CreatePaged(paged.get(), topk);
    if (!iface_result.ok()) {
      std::fprintf(stderr, "interface: %s\n",
                   iface_result.status().ToString().c_str());
      return 1;
    }
    local = std::move(iface_result).value();
    source = local.get();
  } else if (!args.connect.empty()) {
    std::string host;
    uint16_t port = 0;
    const common::Status parsed =
        net::ParseHostPort(args.connect, &host, &port);
    if (!parsed.ok()) {
      std::fprintf(stderr, "connect: %s\n", parsed.ToString().c_str());
      return 64;
    }
    service::RemoteHiddenDatabase::Options ropts;
    if (!args.journal.empty()) {
      // A durable remote session must present the SAME session id on every
      // run: the id keys the server's budget and replay cache, which is
      // what makes re-sent journaled queries free. Persist it next to the
      // journal before connecting.
      if (::mkdir(args.journal.c_str(), 0777) != 0 && errno != EEXIST) {
        std::fprintf(stderr, "journal: mkdir %s: %s\n", args.journal.c_str(),
                     std::strerror(errno));
        return 1;
      }
      auto session_id = LoadOrCreateSessionId(args.journal);
      if (!session_id.ok()) {
        std::fprintf(stderr, "journal: %s\n",
                     session_id.status().ToString().c_str());
        return 1;
      }
      ropts.session_id = *session_id;
    }
    auto remote_result =
        service::RemoteHiddenDatabase::Connect(host, port, ropts);
    if (!remote_result.ok()) {
      if (!args.journal.empty() && (remote_result.status().IsIOError() ||
                                    remote_result.status().IsUnavailable())) {
        // A journal manifest on disk means a previous run paid for
        // answers this one would replay: the backend being down is
        // "retry later" (69), exactly like live-run load shedding —
        // nothing is lost and nothing is broken.
        struct stat st;
        const std::string manifest =
            args.journal + "/" + recovery::kManifestFileName;
        if (::stat(manifest.c_str(), &st) == 0) {
          std::fprintf(stderr, "connect: %s\n",
                       remote_result.status().ToString().c_str());
          std::fprintf(stderr,
                       "connect: backend unreachable while resuming a "
                       "durable session; the journal keeps every paid "
                       "answer — retry when the backend is back\n");
          return 69;
        }
      }
      return FailureExit(remote_result.status(), "connect");
    }
    remote = std::move(remote_result).value();
    source = remote.get();
    std::fprintf(stderr, "remote  : %s, %s, k=%d\n", args.connect.c_str(),
                 remote->schema().ToString().c_str(), remote->k());
  } else {
    auto table_result = LoadTable(args);
    if (!table_result.ok()) {
      std::fprintf(stderr, "load: %s\n",
                   table_result.status().ToString().c_str());
      return 1;
    }
    table = std::move(table_result).value();
    std::printf("dataset : %lld tuples, %s\n",
                static_cast<long long>(table.num_rows()),
                table.schema().ToString().c_str());
    if (!args.dump_data.empty()) {
      // Pure data export — the smoke harness uses it to build a merged
      // ground-truth table from the per-backend generator seeds.
      const common::Status s = dataset::WriteCsv(table, args.dump_data);
      if (!s.ok()) {
        std::fprintf(stderr, "dump-data: %s\n", s.ToString().c_str());
        return 1;
      }
      std::printf("dumped  : %s\n", args.dump_data.c_str());
      return 0;
    }

    auto ranking_result = MakeRanking(args, table.schema());
    if (!ranking_result.ok()) {
      std::fprintf(stderr, "ranking: %s\n",
                   ranking_result.status().ToString().c_str());
      return 1;
    }
    interface::TopKOptions topk;
    topk.k = static_cast<int>(args.k);
    topk.query_budget = args.budget;
    auto iface_result = interface::TopKInterface::Create(
        &table, std::move(ranking_result).value(), topk);
    if (!iface_result.ok()) {
      std::fprintf(stderr, "interface: %s\n",
                   iface_result.status().ToString().c_str());
      return 1;
    }
    local = std::move(iface_result).value();
    source = local.get();
  }

  // --journal wraps the source in a durable write-ahead journal: answers a
  // previous (crashed or interrupted) run paid for replay locally at zero
  // backend cost, and checkpoints compact the history into snapshots.
  const std::string resolved_alg = ResolveAlgorithm(args, source->schema());
  const bool frontier_capable =
      args.band == 0 && FrontierCapable(resolved_alg);
  recovery::SessionState alg_only;
  alg_only.algorithm = resolved_alg;
  std::unique_ptr<recovery::JournalingDatabase> journal;
  if (!args.journal.empty()) {
    recovery::JournalingDatabase::Options jopts;
    jopts.sync_every = static_cast<int>(args.sync_every);
    jopts.checkpoint_every = args.checkpoint_every;
    // Frontier-capable algorithms checkpoint from their own consistent
    // boundaries (on_checkpoint below); the rest let the journal compact
    // itself between queries — any point is consistent for pure replay.
    jopts.auto_checkpoint = !frontier_capable;
    jopts.auto_checkpoint_state = recovery::EncodeSessionState(alg_only);
    if (remote) {
      service::RemoteHiddenDatabase* r = remote.get();
      jopts.seq_provider = [r] { return r->next_seq(); };
    }
    auto journal_result =
        recovery::JournalingDatabase::Open(source, args.journal, jopts);
    if (!journal_result.ok()) {
      std::fprintf(stderr, "journal: %s\n",
                   journal_result.status().ToString().c_str());
      return 1;
    }
    journal = std::move(journal_result).value();
    if (remote) {
      // Continue the wire sequence where the journal left off; a dangling
      // intent re-sends under its original number and hits the server's
      // replay cache instead of the budget.
      remote->set_next_seq(journal->next_wire_seq());
    }
    source = journal.get();
    if (journal->resumed()) {
      std::fprintf(stderr,
                   "journal : resuming %s (%lld journaled answers, epoch "
                   "%lld)\n",
                   args.journal.c_str(),
                   static_cast<long long>(journal->entries()),
                   static_cast<long long>(journal->epoch()));
    }
  }

  // --cache memoizes repeat queries before they hit the source — for a
  // remote source, before they touch the network at all. It stacks over
  // the journal: a cache hit does not even cost a journal lookup.
  std::unique_ptr<interface::CachingDatabase> cache;
  interface::HiddenDatabase* iface = source;
  if (args.cache) {
    cache = std::make_unique<interface::CachingDatabase>(source);
    if (!args.cache_file.empty()) {
      struct stat st;
      if (::stat(args.cache_file.c_str(), &st) == 0) {
        const common::Status s = cache->LoadFromFile(args.cache_file);
        if (!s.ok()) {
          std::fprintf(stderr, "cache: %s\n", s.ToString().c_str());
          return 1;
        }
        std::fprintf(stderr, "cache   : loaded %lld entries from %s\n",
                     static_cast<long long>(cache->size()),
                     args.cache_file.c_str());
      }
    }
    iface = cache.get();
  }

  core::DiscoveryOptions common;
  common.interrupt = [] { return g_interrupt.load(); };
  if (journal && frontier_capable) {
    recovery::JournalingDatabase* j = journal.get();
    common.on_checkpoint = [j, &resolved_alg](
                               core::DiscoveryRun& run,
                               const core::FrontierSaver& save_frontier) {
      if (!j->checkpoint_due()) return;
      recovery::SessionState state;
      state.algorithm = resolved_alg;
      run.SaveState(&state.run_state);
      save_frontier(&state.frontier);
      const common::Status s =
          j->Checkpoint(recovery::EncodeSessionState(state));
      if (!s.ok()) {
        // A failed checkpoint loses nothing: the session keeps appending
        // to the current epoch and will try again.
        std::fprintf(stderr, "checkpoint: %s\n", s.ToString().c_str());
      }
    };
  }
  if (journal && journal->resumed() && !journal->restored_state().empty()) {
    auto state_result =
        recovery::DecodeSessionState(journal->restored_state());
    if (!state_result.ok()) {
      std::fprintf(stderr, "journal: %s\n",
                   state_result.status().ToString().c_str());
      return 1;
    }
    const recovery::SessionState& state = *state_result;
    if (!state.algorithm.empty() && state.algorithm != resolved_alg) {
      std::fprintf(stderr,
                   "journal: %s belongs to algorithm '%s'; resuming it "
                   "with '%s' would diverge from the journaled queries "
                   "(rerun with --algorithm %s, or a fresh --journal "
                   "directory)\n",
                   args.journal.c_str(), state.algorithm.c_str(),
                   resolved_alg.c_str(), state.algorithm.c_str());
      return 1;
    }
    if (frontier_capable && !state.frontier.empty()) {
      // Fast-forward from the checkpointed frontier. Without one the run
      // restarts from the root and replays its paid prefix through the
      // journal — slower to walk, but equally free and equally correct.
      common.resume_run_state = state.run_state;
      common.resume_frontier = state.frontier;
    }
  }

  auto result = Run(args, iface, common);
  const bool interrupted = g_interrupt.load();
  if (journal) {
    // Final checkpoint, on success AND on interrupt/failure: everything
    // journaled so far compacts into a snapshot a later run resumes from.
    const common::Status s =
        journal->Finish(recovery::EncodeSessionState(alg_only));
    if (!s.ok()) {
      std::fprintf(stderr, "journal: final checkpoint: %s\n",
                   s.ToString().c_str());
    }
  }
  if (!result.ok()) return FailureExit(result.status(), "discovery");

  std::printf("found   : %zu %s tuples\n", result->skyline.size(),
              args.band > 0 ? "sky-band" : "skyline");
  std::printf("queries : %lld%s\n",
              static_cast<long long>(result->query_cost),
              result->complete   ? ""
              : interrupted      ? "  (interrupted: partial)"
                                 : "  (budget exhausted: partial)");
  if (!result->skyline.empty()) {
    std::printf("cost per tuple: %.2f\n",
                static_cast<double>(result->query_cost) /
                    static_cast<double>(result->skyline.size()));
  }
  if (cache) {
    std::fprintf(stderr,
                 "cache   : %lld hits, %lld misses, %lld errors\n",
                 static_cast<long long>(cache->hits()),
                 static_cast<long long>(cache->misses()),
                 static_cast<long long>(cache->errors()));
  }
  if (journal) {
    const recovery::JournalingDatabase::Stats& js = journal->stats();
    std::fprintf(stderr,
                 "journal : %lld replayed, %lld paid, %lld errors, epoch "
                 "%lld\n",
                 static_cast<long long>(js.replayed),
                 static_cast<long long>(js.paid),
                 static_cast<long long>(js.errors),
                 static_cast<long long>(journal->epoch()));
  }
  if (paged) {
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
  if (remote) {
    const service::RemoteHiddenDatabase::Stats& t = remote->stats();
    std::fprintf(stderr,
                 "network : %lld remote queries, %lld retries, %lld "
                 "reconnects, %lld rate-limited, %lld B out, %lld B in, "
                 "%lld ms backoff\n",
                 static_cast<long long>(t.remote_queries),
                 static_cast<long long>(t.retries),
                 static_cast<long long>(t.reconnects),
                 static_cast<long long>(t.rate_limited),
                 static_cast<long long>(t.bytes_sent),
                 static_cast<long long>(t.bytes_received),
                 static_cast<long long>(t.backoff_ms));
  }
  if (interrupted && !args.journal.empty()) {
    std::fprintf(stderr,
                 "interrupted: rerun with --journal %s to resume\n",
                 args.journal.c_str());
  }

  if (!args.trace.empty()) {
    const common::Status s = WriteTrace(result->trace, args.trace);
    if (!s.ok()) {
      std::fprintf(stderr, "trace: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("trace   : %s\n", args.trace.c_str());
  }

  if (!args.out.empty()) {
    data::Table out(iface->schema());
    out.Reserve(static_cast<int64_t>(result->skyline.size()));
    for (const data::Tuple& t : result->skyline) {
      const common::Status s = out.Append(t);
      if (!s.ok()) {
        std::fprintf(stderr, "collect: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    const common::Status s = dataset::WriteCsv(out, args.out);
    if (!s.ok()) {
      std::fprintf(stderr, "write: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote   : %s\n", args.out.c_str());
  }

  if (cache && !args.cache_file.empty()) {
    const common::Status s = cache->SaveToFile(args.cache_file);
    if (!s.ok()) {
      std::fprintf(stderr, "cache: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "cache   : saved %lld entries to %s\n",
                 static_cast<long long>(cache->size()),
                 args.cache_file.c_str());
  }
  return 0;
}
