#include "session/session.h"

#include <sys/stat.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>

#include "common/fs_util.h"
#include "core/baseline_crawler.h"
#include "core/mq_db_sky.h"
#include "core/pq_db_sky.h"
#include "core/rq_db_sky.h"
#include "core/skyband_discovery.h"
#include "core/sq_db_sky.h"
#include "dataset/csv.h"
#include "interface/caching_database.h"
#include "net/socket.h"
#include "recovery/checkpoint.h"
#include "recovery/crash_point.h"
#include "recovery/federation_state.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "service/remote_database.h"

namespace hdsky {
namespace session {

using common::Status;

namespace {

using recovery::JournalingDatabase;
using service::RemoteHiddenDatabase;

bool Exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

ExitCode MakeDir(const std::string& dir, std::FILE* err) {
  if (::mkdir(dir.c_str(), 0777) == 0 || errno == EEXIST) return kExitOk;
  std::fprintf(err, "journal: mkdir %s: %s\n", dir.c_str(),
               std::strerror(errno));
  return kExitFailure;
}

/// Loads (or mints and persists) the session id a durable remote session
/// presents to the server. Reusing the id across restarts is what lets
/// the server's per-session replay cache deduplicate a re-sent query
/// instead of charging for it again.
common::Result<uint64_t> SessionIdIn(const std::string& dir) {
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
      return Status::IOError(path + ": malformed session id");
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

/// A journal's state blob that records only the algorithm, so a resume
/// under another algorithm is refused.
std::string AlgorithmState(const std::string& algorithm) {
  recovery::SessionState state;
  state.algorithm = algorithm;
  return recovery::EncodeSessionState(state);
}

/// One layer stack, bottom to top (see the header). A federated session
/// has one per backend, each a remote source with an optional journal.
struct Stack {
  LocalSource local;
  std::unique_ptr<RemoteHiddenDatabase> remote;
  std::unique_ptr<JournalingDatabase> journal;
  std::unique_ptr<interface::CachingDatabase> cache;
  interface::HiddenDatabase* top = nullptr;

  /// The remote source. Under a journal, `dir` holds the persisted
  /// session id that keys the server's budget and replay cache. Failing
  /// to connect while `resuming` a durable session is kExitUnavailable.
  ExitCode Connect(const std::string& endpoint, const std::string& dir,
                   bool resuming, std::FILE* err) {
    std::string host;
    uint16_t port = 0;
    const Status parsed = net::ParseHostPort(endpoint, &host, &port);
    if (!parsed.ok()) {
      ReportFailure(err, "connect", parsed);
      return kExitUsage;
    }
    RemoteHiddenDatabase::Options ropts;
    if (!dir.empty()) {
      if (MakeDir(dir, err) != kExitOk) return kExitFailure;
      auto id = SessionIdIn(dir);
      if (!id.ok()) return ReportFailure(err, "journal", id.status());
      ropts.session_id = *id;
    }
    auto connected = RemoteHiddenDatabase::Connect(host, port, ropts);
    if (!connected.ok()) {
      const Status& s = connected.status();
      if (!resuming || !(s.IsIOError() || s.IsUnavailable())) {
        return ReportFailure(err, "connect " + endpoint, s);
      }
      std::fprintf(err, "connect %s: %s\n", endpoint.c_str(),
                   s.ToString().c_str());
      std::fprintf(err,
                   "connect %s: backend unreachable while resuming a "
                   "durable session; the journal keeps every paid answer — "
                   "retry when the backend is back\n",
                   endpoint.c_str());
      return kExitUnavailable;
    }
    remote = std::move(connected).value();
    top = remote.get();
    std::fprintf(err, "remote  : %s, %s, k=%d\n", endpoint.c_str(),
                 remote->schema().ToString().c_str(), remote->k());
    return kExitOk;
  }

  /// The journal layer in `dir`. It seals a segment between queries,
  /// where any point is consistent, and a resume replays the journal
  /// through the algorithm from its first query.
  ExitCode OpenJournal(const SessionConfig& c, const std::string& dir,
                       const std::string& algorithm,
                       const std::string& resuming_label, std::FILE* err) {
    JournalingDatabase::Options jopts;
    jopts.sync_every = static_cast<int>(c.sync_every);
    jopts.checkpoint_every = c.checkpoint_every;
    jopts.auto_checkpoint_state = AlgorithmState(algorithm);
    if (remote) {
      RemoteHiddenDatabase* r = remote.get();
      jopts.seq_provider = [r] { return r->next_seq(); };
    }
    auto opened = JournalingDatabase::Open(top, dir, jopts);
    if (!opened.ok()) {
      const ExitCode rc = ReportFailure(err, "journal", opened.status());
      // Unsupported: an older release's snapshot directory.
      return opened.status().IsUnsupported() ? kExitDataFormat : rc;
    }
    journal = std::move(opened).value();
    // Continue the wire sequence where the journal left off; a dangling
    // intent re-sends under its original number and hits the server's
    // replay cache instead of the budget.
    if (remote) remote->set_next_seq(journal->next_wire_seq());
    if (journal->resumed()) {
      std::fprintf(err,
                   "journal : %s (%lld journaled answers, epoch %lld, read "
                   "in %.1f ms)\n",
                   resuming_label.c_str(),
                   static_cast<long long>(journal->entries()),
                   static_cast<long long>(journal->epoch()),
                   journal->read_ms());
    }
    top = journal.get();
    return kExitOk;
  }

  /// The cache layer; --cache-file loads its entries when the file exists.
  ExitCode OpenCache(const SessionConfig& c, std::FILE* err) {
    cache = std::make_unique<interface::CachingDatabase>(top);
    top = cache.get();
    if (c.cache_file.empty() || !Exists(c.cache_file)) return kExitOk;
    const Status s = cache->LoadFromFile(c.cache_file);
    if (!s.ok()) return ReportFailure(err, "cache", s);
    std::fprintf(err, "cache   : loaded %lld entries from %s\n",
                 static_cast<long long>(cache->size()), c.cache_file.c_str());
    return kExitOk;
  }
};

/// The algorithm the run dispatches to, as a stable name for journal
/// state blobs: "auto" resolves to mq, and --band picks its variant from
/// the interface mix (PQ-only schemas use the PQ extension).
std::string ResolveAlgorithm(const SessionConfig& c,
                             const data::Schema& schema) {
  if (c.band > 0) {
    const bool any_range =
        !schema.RankingAttributesWithInterface(data::InterfaceType::kRQ)
             .empty();
    return any_range ? "band-rq" : "band-pq";
  }
  return c.algorithm == "auto" ? "mq" : c.algorithm;
}

common::Result<core::DiscoveryResult> RunAlgorithm(
    const std::string& algorithm, int64_t band,
    interface::HiddenDatabase* iface, const core::DiscoveryOptions& common) {
  if (algorithm == "band-rq" || algorithm == "band-pq") {
    core::SkybandOptions opts;
    opts.common = common;
    opts.band = static_cast<int>(band);
    return algorithm == "band-rq" ? core::RqDbSkyband(iface, opts)
                                  : core::PqDbSkyband(iface, opts);
  }
  if (algorithm == "mq") {
    core::MqDbSkyOptions opts;
    opts.common = common;
    return core::MqDbSky(iface, opts);
  }
  if (algorithm == "sq") {
    core::SqDbSkyOptions opts;
    opts.common = common;
    return core::SqDbSky(iface, opts);
  }
  if (algorithm == "rq") {
    core::RqDbSkyOptions opts;
    opts.common = common;
    return core::RqDbSky(iface, opts);
  }
  if (algorithm == "pq") {
    core::PqDbSkyOptions opts;
    opts.common = common;
    return core::PqDbSky(iface, opts);
  }
  if (algorithm == "baseline") {
    core::CrawlOptions opts;
    opts.common = common;
    return core::BaselineSkyline(iface, opts);
  }
  return Status::InvalidArgument("unknown algorithm '" + algorithm + "'");
}

// ---------------------------------------------------------------------
// Renderer: the summary lines and the written outputs.

void PrintJournalStats(std::FILE* err, const std::string& name,
                       const JournalingDatabase& j) {
  const JournalingDatabase::Stats& js = j.stats();
  std::fprintf(err,
               "journal : %s%lld replayed, %lld paid, %lld errors, epoch "
               "%lld\n",
               name.empty() ? "" : (name + "  ").c_str(),
               static_cast<long long>(js.replayed),
               static_cast<long long>(js.paid),
               static_cast<long long>(js.errors),
               static_cast<long long>(j.epoch()));
}

/// A federated backend's line names it and counts its failed queries.
void PrintNetworkStats(std::FILE* err, const std::string& name,
                       const RemoteHiddenDatabase::Stats& t) {
  const std::string failed =
      name.empty() ? "" : std::to_string(t.failed_queries) + " failed, ";
  std::fprintf(err,
               "network : %s%lld remote queries, %lld retries, %lld "
               "reconnects, %lld rate-limited, %s%lld B out, %lld B in, "
               "%lld ms backoff\n",
               name.empty() ? "" : (name + "  ").c_str(),
               static_cast<long long>(t.remote_queries),
               static_cast<long long>(t.retries),
               static_cast<long long>(t.reconnects),
               static_cast<long long>(t.rate_limited), failed.c_str(),
               static_cast<long long>(t.bytes_sent),
               static_cast<long long>(t.bytes_received),
               static_cast<long long>(t.backoff_ms));
}

void PrintDataset(std::FILE* out, const LocalSource& src) {
  if (src.paged) {
    std::fprintf(out,
                 "dataset : %lld tuples (paged %s, ranking %s, pool %lld "
                 "bytes), %s\n",
                 static_cast<long long>(src.paged->num_rows()),
                 src.paged->pool()->read_path_name(),
                 src.paged->ranking_name().c_str(),
                 static_cast<long long>(src.paged->pool()->budget_bytes()),
                 src.paged->schema().ToString().c_str());
  } else {
    std::fprintf(out, "dataset : %lld tuples, %s\n",
                 static_cast<long long>(src.table.num_rows()),
                 src.table.schema().ToString().c_str());
  }
}

void PrintSummary(const SessionConfig& c, const Stack& s,
                  const core::DiscoveryResult& r, bool interrupted,
                  const SessionEnv& env) {
  std::fprintf(env.out, "found   : %zu %s tuples\n", r.skyline.size(),
               c.band > 0 ? "sky-band" : "skyline");
  std::fprintf(env.out, "queries : %lld%s\n",
               static_cast<long long>(r.query_cost),
               r.complete     ? ""
               : interrupted  ? "  (interrupted: partial)"
                              : "  (budget exhausted: partial)");
  if (!r.skyline.empty()) {
    std::fprintf(env.out, "cost per tuple: %.2f\n",
                 static_cast<double>(r.query_cost) /
                     static_cast<double>(r.skyline.size()));
  }
  if (s.cache) {
    std::fprintf(env.err, "cache   : %lld hits, %lld misses, %lld errors\n",
                 static_cast<long long>(s.cache->hits()),
                 static_cast<long long>(s.cache->misses()),
                 static_cast<long long>(s.cache->errors()));
  }
  if (s.journal) PrintJournalStats(env.err, "", *s.journal);
  if (s.local.paged) PrintPoolStats(env.err, *s.local.paged);
  if (s.remote) PrintNetworkStats(env.err, "", s.remote->stats());
}

void PrintFederatedSummary(const SessionConfig& c,
                           const std::vector<Stack>& backends,
                           const federation::FederatedResult& fr,
                           const SessionEnv& env) {
  std::fprintf(env.out, "federate: %s over %zu backends\n",
               c.federate.c_str(), backends.size());
  if (c.federate == "join") {
    std::fprintf(env.out, "found   : %zu joined skyline entities%s\n",
                 fr.joined.size(),
                 fr.join_exact ? "" : "  (approximate: a probe overflowed)");
  } else {
    std::fprintf(env.out, "found   : %zu skyline groups\n", fr.skyline.size());
  }
  std::fprintf(env.out,
               "queries : %lld paid, %lld answered free from the shared "
               "index, %lld rounds\n",
               static_cast<long long>(fr.total_paid),
               static_cast<long long>(fr.total_pruned),
               static_cast<long long>(fr.rounds));
  if (fr.probe_queries > 0) {
    std::fprintf(env.out, "probes  : %lld join probes (included in paid)\n",
                 static_cast<long long>(fr.probe_queries));
  }
  if (fr.partial_coverage) {
    std::fprintf(env.out,
                 "coverage: PARTIAL — a backend failed or ran out of "
                 "budget; tuples only it holds may be missing\n");
  }
  for (size_t i = 0; i < fr.backends.size(); ++i) {
    const federation::BackendReport& r = fr.backends[i];
    std::fprintf(env.err,
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
    if (i >= backends.size()) continue;
    PrintNetworkStats(env.err, r.name, backends[i].remote->stats());
    if (backends[i].journal) {
      PrintJournalStats(env.err, r.name, *backends[i].journal);
    }
  }
}

void PrintInterrupted(const SessionConfig& c, bool interrupted,
                      const SessionEnv& env) {
  if (interrupted && !c.journal.empty()) {
    std::fprintf(env.err, "interrupted: rerun with --journal %s to resume\n",
                 c.journal.c_str());
  }
}

ExitCode WriteTuples(const data::Schema& schema,
                     const std::vector<data::Tuple>& tuples,
                     const std::string& path, const SessionEnv& env) {
  data::Table table(schema);
  table.Reserve(static_cast<int64_t>(tuples.size()));
  for (const data::Tuple& t : tuples) {
    const Status s = table.Append(t);
    if (!s.ok()) return ReportFailure(env.err, "collect", s);
  }
  const Status s = dataset::WriteCsv(table, path);
  if (!s.ok()) return ReportFailure(env.err, "write", s);
  std::fprintf(env.out, "wrote   : %s\n", path.c_str());
  return kExitOk;
}

/// Writes the anytime progress trace ("queries,skyline" per line).
Status WriteTrace(const core::ProgressTrace& trace, const std::string& path) {
  std::string csv = "queries,skyline\n";
  for (const core::ProgressPoint& p : trace) {
    csv += std::to_string(p.queries_issued) + "," +
           std::to_string(p.skyline_discovered) + "\n";
  }
  return common::AtomicWriteFile(path, csv);
}

/// Federation summary in google-benchmark JSON shape, so
/// scripts/compare_bench.py can gate the prune ratio and coverage in CI.
Status WriteFederationJson(const SessionConfig& c,
                           const federation::FederatedResult& fr,
                           double elapsed_ms) {
  const int64_t skyline_size =
      c.federate == "join" ? static_cast<int64_t>(fr.joined.size())
                           : static_cast<int64_t>(fr.skyline.size());
  const double denom = static_cast<double>(fr.total_paid + fr.total_pruned);
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
      c.federate.c_str(), fr.backends.size(), elapsed_ms, elapsed_ms,
      fr.backends.size(), static_cast<long long>(fr.total_paid),
      static_cast<long long>(fr.total_pruned), prune_ratio,
      static_cast<long long>(fr.probe_queries),
      static_cast<long long>(skyline_size),
      static_cast<long long>(fr.rounds), fr.complete ? 1 : 0,
      fr.partial_coverage ? 1 : 0);
  return common::AtomicWriteFile(c.federation_json, buf);
}

// ---------------------------------------------------------------------
// The three modes.

/// One single-site session. A trial (`announce` false) prints nothing but
/// failures; trials cannot journal, cache or write outputs.
ExitCode RunSingle(const SessionConfig& c, const SessionEnv& env,
                   bool announce, SessionReport* report) {
  Stack s;
  if (!c.connect.empty()) {
    const bool resuming =
        !c.journal.empty() &&
        Exists(c.journal + "/" + recovery::kManifestFileName);
    const ExitCode rc = s.Connect(c.connect[0], c.journal, resuming, env.err);
    if (rc != kExitOk) return rc;
  } else {
    ExitCode rc = LoadSource(c.source, env.err, &s.local);
    if (rc != kExitOk) return rc;
    if (announce) PrintDataset(env.out, s.local);
    if (!c.dump_data.empty()) {
      // Pure data export: the smoke harness builds merged ground truth
      // from the per-backend generator seeds with it.
      const Status st = dataset::WriteCsv(s.local.table, c.dump_data);
      if (!st.ok()) return ReportFailure(env.err, "dump-data", st);
      std::fprintf(env.out, "dumped  : %s\n", c.dump_data.c_str());
      return kExitOk;
    }
    rc = BindInterface(c.source, env.err, &s.local);
    if (rc != kExitOk) return rc;
    s.top = s.local.iface.get();
  }

  const std::string algorithm = ResolveAlgorithm(c, s.top->schema());
  if (!c.journal.empty()) {
    const ExitCode rc = s.OpenJournal(c, c.journal, algorithm,
                                      "resuming " + c.journal, env.err);
    if (rc != kExitOk) return rc;
  }
  if (c.cache || !c.cache_file.empty()) {
    const ExitCode rc = s.OpenCache(c, env.err);
    if (rc != kExitOk) return rc;
  }

  core::DiscoveryOptions common;
  common.interrupt = env.interrupt;
  JournalingDatabase* journal = s.journal.get();
  if (journal && journal->resumed() && !journal->restored_state().empty()) {
    auto state = recovery::DecodeSessionState(journal->restored_state());
    if (!state.ok()) return ReportFailure(env.err, "journal", state.status());
    if (!state->algorithm.empty() && state->algorithm != algorithm) {
      std::fprintf(env.err,
                   "journal: %s belongs to algorithm '%s'; resuming it "
                   "with '%s' would diverge from the journaled queries "
                   "(rerun with --algorithm %s, or a fresh --journal "
                   "directory)\n",
                   c.journal.c_str(), state->algorithm.c_str(),
                   algorithm.c_str(), state->algorithm.c_str());
      return kExitFailure;
    }
  }

  auto result = RunAlgorithm(algorithm, c.band, s.top, common);
  const bool interrupted = env.interrupt && env.interrupt();
  if (journal) {
    // Final checkpoint, on success AND on interrupt/failure: everything
    // journaled so far is sealed for a later run to replay.
    const Status st = journal->Finish(AlgorithmState(algorithm));
    if (!st.ok()) {
      std::fprintf(env.err, "journal: final checkpoint: %s\n",
                   st.ToString().c_str());
    }
    report->journal = journal->stats();
  }
  if (!result.ok()) return ReportFailure(env.err, "discovery", result.status());
  report->result = std::move(result).value();
  if (!announce) return kExitOk;

  const core::DiscoveryResult& r = report->result;
  PrintSummary(c, s, r, interrupted, env);
  PrintInterrupted(c, interrupted, env);
  if (!c.trace.empty()) {
    const Status st = WriteTrace(r.trace, c.trace);
    if (!st.ok()) return ReportFailure(env.err, "trace", st);
    std::fprintf(env.out, "trace   : %s\n", c.trace.c_str());
  }
  if (!c.out.empty()) {
    const ExitCode rc = WriteTuples(s.top->schema(), r.skyline, c.out, env);
    if (rc != kExitOk) return rc;
  }
  if (s.cache && !c.cache_file.empty()) {
    const Status st = s.cache->SaveToFile(c.cache_file);
    if (!st.ok()) return ReportFailure(env.err, "cache", st);
    std::fprintf(env.err, "cache   : saved %lld entries to %s\n",
                 static_cast<long long>(s.cache->size()),
                 c.cache_file.c_str());
  }
  return kExitOk;
}

/// --trials independent sessions (seeds S, S+1, ...) fanned across
/// --threads workers. Each trial owns its stack, so the per-trial numbers
/// are identical at every worker count.
ExitCode RunTrials(const SessionConfig& c, const SessionEnv& env,
                   SessionReport* report) {
  const int threads = c.threads > 0 ? static_cast<int>(c.threads)
                                    : runtime::EnvThreadCount();
  const auto seed_of = [&c](int64_t i) {
    return static_cast<uint64_t>(c.source.seed) + static_cast<uint64_t>(i);
  };
  std::vector<SessionReport> runs(static_cast<size_t>(c.trials));
  std::vector<std::string> errors(runs.size());
  runtime::ParallelFor(threads, 0, c.trials, [&](int64_t i) {
    SessionConfig trial = c;
    trial.source.seed = static_cast<int64_t>(seed_of(i));
    // Buffer the trial's diagnostics so a failure prints whole, tagged
    // with its seed, at any worker count.
    char* buf = nullptr;
    size_t len = 0;
    std::FILE* buffer = ::open_memstream(&buf, &len);
    SessionEnv trial_env = env;
    if (buffer != nullptr) trial_env.err = buffer;
    SessionReport& run = runs[static_cast<size_t>(i)];
    run.exit = RunSingle(trial, trial_env, /*announce=*/false, &run);
    if (buffer != nullptr) {
      std::fclose(buffer);
      errors[static_cast<size_t>(i)].assign(buf, len);
      std::free(buf);
    }
  });

  int64_t total_cost = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    const unsigned long long seed = seed_of(static_cast<int64_t>(i));
    if (runs[i].exit != kExitOk) {
      std::fprintf(env.err, "trial %zu (seed %llu): %s", i, seed,
                   errors[i].c_str());
      return runs[i].exit;
    }
    const core::DiscoveryResult& r = runs[i].result;
    std::fprintf(env.out, "trial %zu: seed %llu  found %zu  queries %lld%s\n",
                 i, seed, r.skyline.size(),
                 static_cast<long long>(r.query_cost),
                 r.complete ? "" : "  (partial)");
    total_cost += r.query_cost;
    report->trials.push_back(std::move(runs[i].result));
  }
  // stdout stays byte-identical at every worker count; the worker note
  // goes to stderr.
  std::fprintf(env.out, "mean queries over %lld trials: %.2f\n",
               static_cast<long long>(c.trials),
               static_cast<double>(total_cost) /
                   static_cast<double>(c.trials));
  std::fprintf(env.err, "(ran on %d worker%s)\n", threads,
               threads == 1 ? "" : "s");
  return kExitOk;
}

/// Federated discovery over every --connect endpoint. Under --journal the
/// session is durable: DIR/backend-<i> holds each backend's journal and
/// session id, DIR/STATE the coordinator's latest round barrier, so a
/// killed run resumed with the same flags replays its paid prefix for
/// free and produces byte-identical outputs.
ExitCode RunFederated(const SessionConfig& c, const SessionEnv& env,
                      SessionReport* report) {
  const bool durable = !c.journal.empty();
  // A coordinator checkpoint on disk means a previous run paid for
  // queries this one is expected to replay.
  const bool resuming =
      durable && Exists(c.journal + "/" + recovery::kFederationStateFileName);
  if (durable && MakeDir(c.journal, env.err) != kExitOk) return kExitFailure;

  std::vector<Stack> backends(c.connect.size());
  std::vector<interface::HiddenDatabase*> tops;
  for (size_t i = 0; i < backends.size(); ++i) {
    const std::string& endpoint = c.connect[i];
    const std::string dir =
        durable ? c.journal + "/backend-" + std::to_string(i) : "";
    ExitCode rc = backends[i].Connect(endpoint, dir, resuming, env.err);
    if (rc != kExitOk) return rc;
    if (durable) {
      // The coordinator's own frontier state lives in DIR/STATE; each
      // backend journal only replays.
      rc = backends[i].OpenJournal(c, dir, c.algorithm,
                                   endpoint + " resuming", env.err);
      if (rc != kExitOk) return rc;
    }
    tops.push_back(backends[i].top);
  }

  federation::FederationOptions fopts;
  fopts.mode = c.federate == "join"
                   ? federation::FederationOptions::Mode::kJoin
                   : federation::FederationOptions::Mode::kUnion;
  fopts.total_budget = c.source.budget;
  fopts.round_budget = c.round_budget;
  fopts.num_threads = static_cast<int>(c.threads);
  fopts.algorithm = c.algorithm;
  fopts.join_attr = c.join_attr;
  fopts.max_probe_attempts = c.probe_attempts;
  fopts.probe_backoff_rounds = c.probe_backoff;
  fopts.interrupt = env.interrupt;
  recovery::FederationSessionState restored;
  if (durable) {
    if (resuming) {
      auto loaded = recovery::LoadFederationState(c.journal);
      if (!loaded.ok()) {
        return ReportFailure(env.err, "journal", loaded.status());
      }
      restored = std::move(loaded).value();
      fopts.resume_state = &restored;
      std::fprintf(env.err,
                   "journal : resuming federated session at round %lld\n",
                   static_cast<long long>(restored.rounds));
    }
    fopts.on_round_checkpoint =
        [&c, &backends](const recovery::FederationSessionState& s) -> Status {
      // The backend journals must be durable before the coordinator
      // state that presumes their payments (a no-op at --sync-every 1).
      for (Stack& b : backends) HDSKY_RETURN_IF_ERROR(b.journal->Sync());
      return recovery::SaveFederationState(c.journal, s);
    };
    fopts.on_backend_reprobe = [&backends](size_t i) {
      return backends[i].journal->ResolvePending();
    };
  }

  const auto start = std::chrono::steady_clock::now();
  auto result = federation::RunFederatedDiscovery(tops, fopts, c.connect);
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  const bool interrupted = env.interrupt && env.interrupt();
  if (durable) {
    // Final seal, on success AND on interrupt/failure: every paid answer
    // (torn-round payments included) is durable in each backend's
    // journal, and the last consistent round barrier in DIR/STATE is what
    // a rerun resumes from.
    const std::string blob = AlgorithmState(c.algorithm);
    for (size_t i = 0; i < backends.size(); ++i) {
      JournalingDatabase& j = *backends[i].journal;
      const Status s = j.Finish(blob);
      if (!s.ok()) {
        std::fprintf(env.err, "journal: %s: final checkpoint: %s\n",
                     c.connect[i].c_str(), s.ToString().c_str());
      }
      report->journal.replayed += j.stats().replayed;
      report->journal.paid += j.stats().paid;
      report->journal.errors += j.stats().errors;
    }
  }
  if (!result.ok()) {
    return ReportFailure(env.err, "federation", result.status());
  }
  report->federated = std::move(result).value();
  const federation::FederatedResult& fr = report->federated;

  PrintFederatedSummary(c, backends, fr, env);
  PrintInterrupted(c, interrupted, env);
  if (!c.federation_json.empty()) {
    // A durable session's outputs must be byte-identical between an
    // uninterrupted run and a crash-then-resume (the chaos smoke diffs
    // them), so the one nondeterministic field is pinned under --journal.
    const Status s = WriteFederationJson(c, fr, durable ? 0.0 : elapsed_ms);
    if (!s.ok()) return ReportFailure(env.err, "federation-json", s);
    std::fprintf(env.out, "json    : %s\n", c.federation_json.c_str());
  }
  if (c.out.empty()) return kExitOk;
  // Representatives are full tuples of their source backend, so one CSV
  // needs every backend to share the full schema.
  const data::Schema& schema = backends[0].remote->schema();
  for (size_t i = 1; i < backends.size(); ++i) {
    if (backends[i].remote->schema().ToString() != schema.ToString()) {
      std::fprintf(env.err,
                   "--out needs identical backend schemas (%s differs from "
                   "%s)\n",
                   c.connect[i].c_str(), c.connect[0].c_str());
      return kExitFailure;
    }
  }
  std::vector<data::Tuple> representatives;
  for (const federation::UnionGroup& g : fr.skyline) {
    representatives.push_back(g.representative);
  }
  return WriteTuples(schema, representatives, c.out, env);
}

}  // namespace

SessionReport RunSession(const SessionConfig& config, const SessionEnv& env) {
  if (!config.crash_point.empty()) recovery::ArmCrashPoint(config.crash_point);
  SessionReport report;
  if (config.trials > 1) {
    report.exit = RunTrials(config, env, &report);
  } else if (!config.federate.empty()) {
    report.exit = RunFederated(config, env, &report);
  } else {
    report.exit = RunSingle(config, env, /*announce=*/true, &report);
  }
  return report;
}

}  // namespace session
}  // namespace hdsky
