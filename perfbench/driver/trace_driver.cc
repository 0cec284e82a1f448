// Traced per-layer driver for the perfbench benchmark.
//
// Builds the same stacks the shipped tools build, from public library
// calls, and records a span around every HiddenDatabase::Execute boundary
// and every JournalingDatabase checkpoint:
//
//   perfbench_driver serve (--data CSV | --dataset-file HDB
//       [--read-path P] [--buffer-pool-bytes N]) --spans PATH
//     TopKInterface::Create / CreatePaged -> "interface.execute" spans ->
//     EventDrivenServer (one event loop, one backend worker). Prints
//     "listening on HOST:PORT", serves until SIGTERM, then prints the
//     served/cache/backend/pool lines hdsky_serve prints.
//
//   perfbench_driver discover --connect EP[,EP...] [--federate union]
//       [--journal DIR] [--sync-every N] [--checkpoint-every N]
//       --out CSV --spans PATH
//     RemoteHiddenDatabase -> "net.execute" spans [-> JournalingDatabase ->
//     "recovery.execute" spans] -> RqDbSky, or RunFederatedDiscovery over
//     one such stack per endpoint. The whole run is the root "session"
//     span; checkpoints are "recovery.checkpoint" spans.
//
// Spans stay in memory and are written when the process ends, one per
// line: id parent name backend ordinal key start_ns end_ns. Times are
// CLOCK_MONOTONIC, shared by the client and server processes; `key` hashes
// the query's signature, so a client call can be matched with the server
// execution of the same query even when the server's shared cache answers
// a repeated query without executing it.

#include <atomic>
#include <csignal>
#include <exception>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/rq_db_sky.h"
#include "data/paged_table.h"
#include "data/read_path.h"
#include "data/table.h"
#include "dataset/csv.h"
#include "federation/federated_discovery.h"
#include "interface/ranking.h"
#include "interface/top_k_interface.h"
#include "net/socket.h"
#include "recovery/checkpoint.h"
#include "recovery/journaling_database.h"
#include "service/event_server.h"
#include "service/remote_database.h"

namespace {

using hdsky::common::Result;
using hdsky::common::Status;
using hdsky::interface::HiddenDatabase;
using hdsky::interface::Query;
using hdsky::interface::QueryResult;

int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// In-memory span store. Federated backends run on pool threads, so
// appends are locked; the parent of a span is the innermost span open on
// the same thread, else the root.
class SpanLog {
 public:
  struct Span {
    int parent;
    const char* name;
    int backend;
    int64_t ordinal;
    uint64_t key;
    int64_t start;
    int64_t end;
  };

  SpanLog() { spans_.reserve(1 << 16); }

  int Open(const char* name, int backend, int64_t ordinal, uint64_t key) {
    const int64_t start = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    const int parent = current_ >= 0 ? current_ : root_;
    spans_.push_back({parent, name, backend, ordinal, key, start, 0});
    return static_cast<int>(spans_.size()) - 1;
  }

  // Opens the span every parentless span hangs under (the session).
  int OpenRoot(const char* name) {
    const int id = Open(name, -1, 0, 0);
    std::lock_guard<std::mutex> lock(mu_);
    root_ = id;
    return id;
  }

  void Close(int id) {
    const int64_t end = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end = end;
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu %d %s %d %lld %llu %lld %lld\n", i, s.parent,
                   s.name, s.backend, static_cast<long long>(s.ordinal),
                   static_cast<unsigned long long>(s.key),
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end));
    }
    return std::fclose(f) == 0;
  }

  static thread_local int current_;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  int root_ = -1;            // guarded by mu_
};

thread_local int SpanLog::current_ = -1;

// Opens a span for its scope and makes it the thread's current parent.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int backend, int64_t ordinal,
             uint64_t key)
      : ScopedSpan(log, log->Open(name, backend, ordinal, key)) {}
  // The root span of the log.
  ScopedSpan(SpanLog* log, const char* root_name)
      : ScopedSpan(log, log->OpenRoot(root_name)) {}
  ~ScopedSpan() {
    SpanLog::current_ = saved_;
    log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ScopedSpan(SpanLog* log, int id)
      : log_(log), id_(id), saved_(SpanLog::current_) {
    SpanLog::current_ = id_;
  }

  SpanLog* log_;
  int id_;
  int saved_;
};

// Timing decorator over one HiddenDatabase::Execute boundary. The ordinal
// counts the calls that reach this boundary; the key is the hash of the
// query's signature.
class TracingDatabase : public HiddenDatabase {
 public:
  TracingDatabase(HiddenDatabase* inner, const char* name, int backend,
                  SpanLog* log)
      : inner_(inner), name_(name), backend_(backend), log_(log) {}

  Result<QueryResult> Execute(const Query& q) override {
    ScopedSpan span(log_, name_, backend_, ++ordinal_, Key(q));
    return inner_->Execute(q);
  }
  Status Execute(const Query& q, QueryResult* out) override {
    ScopedSpan span(log_, name_, backend_, ++ordinal_, Key(q));
    return inner_->Execute(q, out);
  }
  const hdsky::data::Schema& schema() const override {
    return inner_->schema();
  }
  int k() const override { return inner_->k(); }
  Status ValidateQuery(const Query& q) const override {
    return inner_->ValidateQuery(q);
  }

 private:
  static uint64_t Key(const Query& q) {
    return std::hash<std::string>{}(q.Signature());
  }

  HiddenDatabase* inner_;
  const char* name_;
  int backend_;
  SpanLog* log_;
  std::atomic<int64_t> ordinal_{0};
};

struct Args {
  std::string mode;
  std::string data;
  std::string dataset_file;
  std::string read_path = "mmap";
  long long buffer_pool_bytes = 0;
  int k = 10;
  std::string connect;
  std::string federate;
  std::string journal;
  int sync_every = 1;
  long long checkpoint_every = 256;
  std::string out;
  std::string spans;
};

bool ParseFlags(int argc, char** argv, Args* a);

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc < 2 || argc % 2 != 0) return false;
  a->mode = argv[1];
  try {
    return ParseFlags(argc, argv, a);
  } catch (const std::exception& e) {  // std::stoi / std::stoll
    std::fprintf(stderr, "bad flag value: %s\n", e.what());
    return false;
  }
}

bool ParseFlags(int argc, char** argv, Args* a) {
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--data") {
      a->data = value;
    } else if (flag == "--dataset-file") {
      a->dataset_file = value;
    } else if (flag == "--read-path") {
      a->read_path = value;
    } else if (flag == "--buffer-pool-bytes") {
      a->buffer_pool_bytes = std::stoll(value);
    } else if (flag == "--k") {
      a->k = std::stoi(value);
    } else if (flag == "--connect") {
      a->connect = value;
    } else if (flag == "--federate") {
      a->federate = value;
    } else if (flag == "--journal") {
      a->journal = value;
    } else if (flag == "--sync-every") {
      a->sync_every = std::stoi(value);
    } else if (flag == "--checkpoint-every") {
      a->checkpoint_every = std::stoll(value);
    } else if (flag == "--out") {
      a->out = value;
    } else if (flag == "--spans") {
      a->spans = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !a->spans.empty();
}

int Fail(const char* what, const Status& s) {
  std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
  return 1;
}

std::atomic<bool> g_stop{false};
void HandleSignal(int) { g_stop.store(true); }

int Serve(const Args& args) {
  SpanLog log;
  hdsky::data::Table table;
  std::unique_ptr<hdsky::data::PagedTable> paged;
  std::unique_ptr<hdsky::interface::TopKInterface> iface;
  hdsky::interface::TopKOptions topk;
  topk.k = args.k;
  if (!args.dataset_file.empty()) {
    hdsky::data::PagedTableOptions popts;
    if (args.buffer_pool_bytes > 0) {
      popts.buffer_pool_bytes = static_cast<size_t>(args.buffer_pool_bytes);
    }
    if (!hdsky::data::ParseReadPathKind(args.read_path, &popts.read_path)) {
      std::fprintf(stderr, "bad --read-path %s\n", args.read_path.c_str());
      return 64;
    }
    auto p = hdsky::data::Table::OpenPaged(args.dataset_file, popts);
    if (!p.ok()) return Fail("load", p.status());
    paged = std::move(p).value();
    auto i = hdsky::interface::TopKInterface::CreatePaged(paged.get(), topk);
    if (!i.ok()) return Fail("interface", i.status());
    iface = std::move(i).value();
  } else {
    auto t = hdsky::dataset::ReadCsv(args.data);
    if (!t.ok()) return Fail("load", t.status());
    table = std::move(t).value();
    auto i = hdsky::interface::TopKInterface::Create(
        &table, hdsky::interface::MakeSumRanking(), topk);
    if (!i.ok()) return Fail("interface", i.status());
    iface = std::move(i).value();
  }
  TracingDatabase traced(iface.get(), "interface.execute", 0, &log);

  hdsky::service::EventDrivenServer::Options sopts;
  sopts.num_loops = 1;
  sopts.num_workers = 1;
  auto server = hdsky::service::EventDrivenServer::Start(&traced, sopts);
  if (!server.ok()) return Fail("serve", server.status());

  struct sigaction sa{};
  sa.sa_handler = HandleSignal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  std::printf("listening on 127.0.0.1:%u\n", (*server)->port());
  std::fflush(stdout);
  while (!g_stop.load()) {
    timespec ts{0, 20 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  (*server)->Stop();

  const hdsky::service::EventDrivenServer::Stats st = (*server)->stats();
  std::fprintf(stderr,
               "served  : %lld queries (%lld replayed, %lld budget "
               "rejections, %lld busy) over %lld connections "
               "(%lld rejected, %lld shed)\n",
               static_cast<long long>(st.queries_served),
               static_cast<long long>(st.queries_replayed),
               static_cast<long long>(st.budget_rejections),
               static_cast<long long>(st.busy_rejections),
               static_cast<long long>(st.connections_accepted),
               static_cast<long long>(st.connections_rejected),
               static_cast<long long>(st.connections_shed));
  std::fprintf(stderr,
               "cache   : %lld hits, %lld single-flight joins, %lld "
               "backend executions\n",
               static_cast<long long>(st.cache_hits),
               static_cast<long long>(st.singleflight_joins),
               static_cast<long long>(st.backend_executions));
  const hdsky::interface::AccessStats access = iface->stats();
  std::fprintf(stderr,
               "backend : %lld queries issued, %lld tuples returned\n",
               static_cast<long long>(access.queries_issued),
               static_cast<long long>(access.tuples_returned));
  if (paged != nullptr) {
    const hdsky::data::BufferPool::Stats ps = paged->pool_stats();
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
  if (!log.Write(args.spans)) {
    std::fprintf(stderr, "spans: cannot write %s\n", args.spans.c_str());
    return 1;
  }
  return 0;
}

// Bytes the journal directory has gained since the last call: files that
// grew, plus files that are new. Checkpoints replace files, so summing the
// growth between observation points counts every byte written once.
class DirGrowth {
 public:
  explicit DirGrowth(std::string dir) : dir_(std::move(dir)) {}
  void Observe() {
    std::map<std::string, int64_t> now;
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator(dir_, ec)) {
      std::error_code size_ec;
      const auto size = e.file_size(size_ec);
      if (!size_ec) {
        now[e.path().filename().string()] = static_cast<int64_t>(size);
      }
    }
    for (const auto& [name, size] : now) {
      const auto it = last_.find(name);
      const int64_t before = it == last_.end() ? 0 : it->second;
      if (size > before) total_ += size - before;
    }
    last_ = std::move(now);
  }
  int64_t total() const { return total_; }

 private:
  std::string dir_;
  std::map<std::string, int64_t> last_;
  int64_t total_ = 0;
};

void PrintNetwork(const std::string& endpoint, bool federated,
                  const hdsky::service::RemoteHiddenDatabase::Stats& t) {
  std::fprintf(stderr,
               "network : %s%s%lld remote queries, %lld retries, %lld "
               "reconnects, %lld rate-limited, %lld B out, %lld B in, "
               "%lld ms backoff\n",
               federated ? endpoint.c_str() : "", federated ? "  " : "",
               static_cast<long long>(t.remote_queries),
               static_cast<long long>(t.retries),
               static_cast<long long>(t.reconnects),
               static_cast<long long>(t.rate_limited),
               static_cast<long long>(t.bytes_sent),
               static_cast<long long>(t.bytes_received),
               static_cast<long long>(t.backoff_ms));
}

int Discover(const Args& args) {
  SpanLog log;
  std::vector<std::string> endpoints;
  for (size_t pos = 0; pos <= args.connect.size();) {
    const size_t comma = args.connect.find(',', pos);
    const size_t end = comma == std::string::npos ? args.connect.size()
                                                  : comma;
    endpoints.push_back(args.connect.substr(pos, end - pos));
    pos = end + 1;
  }
  const bool federated = args.federate == "union";
  if (!federated && endpoints.size() != 1) {
    std::fprintf(stderr, "several endpoints need --federate union\n");
    return 64;
  }
  if (federated && !args.journal.empty()) {
    std::fprintf(stderr, "--journal is single-site only here\n");
    return 64;
  }

  std::vector<std::unique_ptr<hdsky::service::RemoteHiddenDatabase>> remotes;
  std::vector<std::unique_ptr<TracingDatabase>> net_spans;
  for (size_t i = 0; i < endpoints.size(); ++i) {
    std::string host;
    uint16_t port = 0;
    const Status parsed = hdsky::net::ParseHostPort(endpoints[i], &host,
                                                    &port);
    if (!parsed.ok()) return Fail("connect", parsed);
    auto r = hdsky::service::RemoteHiddenDatabase::Connect(host, port);
    if (!r.ok()) return Fail("connect", r.status());
    remotes.push_back(std::move(r).value());
    net_spans.push_back(std::make_unique<TracingDatabase>(
        remotes.back().get(), "net.execute", static_cast<int>(i), &log));
  }

  int64_t paid = 0;
  std::vector<hdsky::data::Tuple> skyline;
  {
    ScopedSpan session(&log, "session");
    if (federated) {
      std::vector<HiddenDatabase*> backends;
      for (auto& t : net_spans) backends.push_back(t.get());
      hdsky::federation::FederationOptions fopts;
      fopts.mode = hdsky::federation::FederationOptions::Mode::kUnion;
      fopts.algorithm = "rq";
      auto fr = hdsky::federation::RunFederatedDiscovery(backends, fopts,
                                                         endpoints);
      if (!fr.ok()) return Fail("federation", fr.status());
      paid = fr->total_paid;
      for (const auto& g : fr->skyline) skyline.push_back(g.representative);
      std::printf("found   : %zu skyline groups\n", fr->skyline.size());
      std::printf("queries : %lld paid, %lld answered free from the shared "
                  "index, %lld rounds\n",
                  static_cast<long long>(fr->total_paid),
                  static_cast<long long>(fr->total_pruned),
                  static_cast<long long>(fr->rounds));
    } else {
      HiddenDatabase* source = net_spans[0].get();
      std::unique_ptr<hdsky::recovery::JournalingDatabase> journal;
      std::unique_ptr<TracingDatabase> journal_spans;
      std::unique_ptr<DirGrowth> growth;
      hdsky::recovery::SessionState alg_only;
      alg_only.algorithm = "rq";
      hdsky::core::RqDbSkyOptions opts;
      if (!args.journal.empty()) {
        hdsky::recovery::JournalingDatabase::Options jopts;
        jopts.sync_every = args.sync_every;
        jopts.checkpoint_every = args.checkpoint_every;
        // RQ checkpoints from its own frontier (on_checkpoint below), as
        // hdsky_discover does for frontier-capable algorithms.
        jopts.auto_checkpoint = false;
        jopts.auto_checkpoint_state =
            hdsky::recovery::EncodeSessionState(alg_only);
        hdsky::service::RemoteHiddenDatabase* r = remotes[0].get();
        jopts.seq_provider = [r] { return r->next_seq(); };
        auto j = hdsky::recovery::JournalingDatabase::Open(
            source, args.journal, jopts);
        if (!j.ok()) return Fail("journal", j.status());
        journal = std::move(j).value();
        remotes[0]->set_next_seq(journal->next_wire_seq());
        growth = std::make_unique<DirGrowth>(args.journal);
        growth->Observe();
        journal_spans = std::make_unique<TracingDatabase>(
            journal.get(), "recovery.execute", 0, &log);
        source = journal_spans.get();
        hdsky::recovery::JournalingDatabase* jp = journal.get();
        DirGrowth* g = growth.get();
        opts.common.on_checkpoint =
            [jp, g, &log](hdsky::core::DiscoveryRun& run,
                          const hdsky::core::FrontierSaver& save_frontier) {
              if (!jp->checkpoint_due()) return;
              ScopedSpan span(&log, "recovery.checkpoint", 0, 0, 0);
              hdsky::recovery::SessionState state;
              state.algorithm = "rq";
              run.SaveState(&state.run_state);
              save_frontier(&state.frontier);
              g->Observe();
              const Status s =
                  jp->Checkpoint(hdsky::recovery::EncodeSessionState(state));
              g->Observe();
              if (!s.ok()) {
                std::fprintf(stderr, "checkpoint: %s\n",
                             s.ToString().c_str());
              }
            };
      }
      auto result = hdsky::core::RqDbSky(source, opts);
      if (journal) {
        // The final compaction hdsky_discover makes on exit.
        ScopedSpan span(&log, "recovery.checkpoint", 0, 0, 0);
        growth->Observe();
        const Status s =
            journal->Finish(hdsky::recovery::EncodeSessionState(alg_only));
        growth->Observe();
        if (!s.ok()) return Fail("journal: final checkpoint", s);
      }
      if (!result.ok()) return Fail("discovery", result.status());
      paid = result->query_cost;
      skyline = result->skyline;
      std::printf("found   : %zu skyline tuples\n", skyline.size());
      std::printf("queries : %lld\n", static_cast<long long>(paid));
      if (journal) {
        const auto& js = journal->stats();
        std::fprintf(stderr,
                     "journal : %lld replayed, %lld paid, %lld errors, "
                     "epoch %lld\n",
                     static_cast<long long>(js.replayed),
                     static_cast<long long>(js.paid),
                     static_cast<long long>(js.errors),
                     static_cast<long long>(journal->epoch()));
        std::fprintf(stderr, "written : %lld journal bytes\n",
                     static_cast<long long>(growth->total()));
      }
    }
  }
  for (size_t i = 0; i < remotes.size(); ++i) {
    PrintNetwork(endpoints[i], federated, remotes[i]->stats());
  }

  if (!args.out.empty()) {
    hdsky::data::Table out(remotes[0]->schema());
    for (const auto& t : skyline) {
      const Status s = out.Append(t);
      if (!s.ok()) return Fail("collect", s);
    }
    const Status s = hdsky::dataset::WriteCsv(out, args.out);
    if (!s.ok()) return Fail("write", s);
  }
  if (!log.Write(args.spans)) {
    std::fprintf(stderr, "spans: cannot write %s\n", args.spans.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args) ||
      (args.mode != "serve" && args.mode != "discover")) {
    std::fprintf(stderr,
                 "usage: perfbench_driver serve|discover [flags] "
                 "--spans PATH (see the file comment)\n");
    return 64;
  }
  return args.mode == "serve" ? Serve(args) : Discover(args);
}
