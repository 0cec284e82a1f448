// hdsky_loadgen — drive thousands of concurrent pipelined discovery
// sessions against the event-driven hidden-database service and report
// latency percentiles plus the server's served and backend counts.
//
// By default it is self-contained: it generates a synthetic dataset,
// starts an in-process EventDrivenServer on an ephemeral loopback port,
// and unleashes the LoadDriver on it. With --connect it targets an
// already-running server instead (the server must answer kStatsRequest
// for its counts to be reported). Every run draws fresh session ids, so
// repeated runs against one server do not collide.
//
//   hdsky_loadgen --sessions 1000 --queries 32 --json BENCH_service.json
//   hdsky_loadgen --connect 127.0.0.1:7447 --sessions 200
//
// Flags: LoadgenFlags in src/session/flags.cc. The in-process server's
// knobs (--n, --m, --k, --server-loops) are rejected beside --connect. --probe pre-flights a single
// RemoteHiddenDatabase client before the load and reports its wire
// counters (handshake bytes, retries, backoff) to stderr.
//
// $HDSKY_SCALE (a float, default 1) multiplies --sessions and --queries,
// the same knob the bench suite uses, so CI can run a reduced-scale
// smoke of the exact same binary.
//
// Exit status (session::ExitCode): 0 when the run completed (all sessions
// served inside the deadline), 1 otherwise — CI treats a nonzero exit as
// a load failure — and 64 on a usage error.

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "dataset/synthetic.h"
#include "interface/ranking.h"
#include "interface/top_k_interface.h"
#include "net/socket.h"
#include "service/event_server.h"
#include "service/load_driver.h"
#include "service/remote_database.h"
#include "session/flags.h"

namespace {

using namespace hdsky;
using Args = session::LoadgenConfig;

/// $HDSKY_SCALE scales session/query counts with a floor of 1, mirroring
/// bench::Scale without dragging google-benchmark into a tool.
double ScaleFactor() {
  const char* env = std::getenv("HDSKY_SCALE");
  if (env == nullptr || *env == '\0') return 1.0;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  if (end == env || v <= 0.0) return 1.0;
  return v;
}

int64_t Scaled(int64_t n, double factor) {
  const int64_t s = static_cast<int64_t>(static_cast<double>(n) * factor);
  return s < 1 ? 1 : s;
}

void WriteJson(const std::string& path, const Args& args,
               const service::LoadReport& report) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return;
  }
  // google-benchmark report shape: counters are flat keys on each
  // benchmark entry, which is what scripts/compare_bench.py consumes.
  std::fprintf(f,
               "{\n"
               "  \"context\": {\n"
               "    \"executable\": \"hdsky_loadgen\",\n"
               "    \"caches\": []\n"
               "  },\n"
               "  \"benchmarks\": [\n"
               "    {\n"
               "      \"name\": \"loadgen/sessions:%" PRId64
               "/queries:%" PRId64 "\",\n"
               "      \"run_name\": \"loadgen/sessions:%" PRId64
               "/queries:%" PRId64 "\",\n"
               "      \"run_type\": \"iteration\",\n"
               "      \"repetitions\": 1,\n"
               "      \"repetition_index\": 0,\n"
               "      \"threads\": 1,\n"
               "      \"iterations\": 1,\n"
               "      \"real_time\": %.3f,\n"
               "      \"cpu_time\": %.3f,\n"
               "      \"time_unit\": \"ms\",\n"
               "      \"sessions\": %d,\n"
               "      \"sessions_failed\": %d,\n"
               "      \"queries_completed\": %" PRId64 ",\n"
               "      \"qps\": %.1f,\n"
               "      \"p50_us\": %.1f,\n"
               "      \"p99_us\": %.1f,\n"
               "      \"mean_us\": %.1f,\n"
               "      \"queries_served\": %" PRId64 ",\n"
               "      \"backend_executions\": %" PRId64 "\n"
               "    }\n"
               "  ]\n"
               "}\n",
               args.sessions, args.queries, args.sessions, args.queries,
               report.elapsed_ms, report.elapsed_ms,
               report.sessions_completed, report.sessions_failed,
               report.queries_completed, report.qps,
               report.latency_p50_us, report.latency_p99_us,
               report.latency_mean_us,
               report.server_stats_valid ? report.server.queries_served : -1,
               report.server_stats_valid ? report.server.backend_executions
                                         : -1);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!session::ParseOrUsage(session::LoadgenFlags(&args), argc, argv)) {
    return session::kExitUsage;
  }
  const double scale = ScaleFactor();
  args.sessions = Scaled(args.sessions, scale);
  args.queries = Scaled(args.queries, scale);

  // In-process server unless --connect points elsewhere.
  std::unique_ptr<interface::TopKInterface> iface;
  std::unique_ptr<service::EventDrivenServer> server;
  data::Table table;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  if (args.connect.empty()) {
    dataset::SyntheticOptions synth;
    synth.num_tuples = args.n;
    synth.num_attributes = static_cast<int>(args.m);
    synth.seed = static_cast<uint64_t>(args.seed);
    auto table_result = dataset::GenerateSynthetic(synth);
    if (!table_result.ok()) {
      return session::ReportFailure(stderr, "dataset", table_result.status());
    }
    table = std::move(table_result).value();
    interface::TopKOptions topk;
    topk.k = static_cast<int>(args.k);
    auto iface_result = interface::TopKInterface::Create(
        &table, interface::MakeSumRanking(), topk);
    if (!iface_result.ok()) {
      return session::ReportFailure(stderr, "interface", iface_result.status());
    }
    iface = std::move(iface_result).value();

    service::EventDrivenServer::Options opts;
    opts.num_loops = static_cast<int>(args.server_loops);
    opts.max_connections = static_cast<int>(args.sessions) + 16;
    auto server_result =
        service::EventDrivenServer::Start(iface.get(), opts);
    if (!server_result.ok()) {
      return session::ReportFailure(stderr, "serve", server_result.status());
    }
    server = std::move(server_result).value();
    port = server->port();
  } else {
    net::ParseHostPort(args.connect[0], &host, &port);
  }

  if (args.probe) {
    // A single real client ahead of the storm: proves the server answers
    // the full handshake and surfaces the wire cost of connecting (the
    // per-connection counters every RemoteHiddenDatabase now keeps).
    auto probe = service::RemoteHiddenDatabase::Connect(host, port);
    if (!probe.ok()) {
      std::fprintf(stderr, "probe    : %s%s\n",
                   probe.status().ToString().c_str(),
                   probe.status().IsUnavailable()
                       ? " (server shedding load)"
                       : "");
      return session::kExitFailure;
    }
    const service::RemoteHiddenDatabase::Stats& ps = (*probe)->stats();
    std::fprintf(stderr,
                 "probe    : %s k=%d, handshake %" PRId64 " B out / %"
                 PRId64 " B in, %" PRId64 " retries, %" PRId64
                 " ms backoff\n",
                 (*probe)->schema().ToString().c_str(), (*probe)->k(),
                 ps.bytes_sent, ps.bytes_received, ps.retries,
                 ps.backoff_ms);
  }

  service::LoadOptions load;
  load.host = host;
  load.port = port;
  load.sessions = static_cast<int>(args.sessions);
  load.queries_per_session = static_cast<int>(args.queries);
  load.pipeline_depth = static_cast<int>(args.pipeline);
  load.num_loops = static_cast<int>(args.loops);
  load.total_timeout_ms = static_cast<int>(args.timeout_ms);
  load.workload_seed = static_cast<uint64_t>(args.seed);
  auto run = service::RunLoad(load);
  if (!run.ok()) {
    std::fprintf(stderr, "load: %s\n", run.status().ToString().c_str());
    return session::kExitFailure;
  }
  const service::LoadReport report = std::move(run).value();
  if (server != nullptr) server->Stop();

  std::fprintf(stderr,
               "sessions : %d completed, %d failed (of %" PRId64 ")\n",
               report.sessions_completed, report.sessions_failed,
               args.sessions);
  std::fprintf(stderr,
               "queries  : %" PRId64 " answered in %.1f ms (%.0f qps)\n",
               report.queries_completed, report.elapsed_ms, report.qps);
  std::fprintf(stderr, "latency  : p50 %.0f us, p99 %.0f us, mean %.0f us\n",
               report.latency_p50_us, report.latency_p99_us,
               report.latency_mean_us);
  if (report.server_stats_valid) {
    std::fprintf(stderr,
                 "server   : %" PRId64 " queries served, %" PRId64
                 " backend executions\n",
                 report.server.queries_served,
                 report.server.backend_executions);
  } else {
    std::fprintf(stderr, "server   : stats unavailable\n");
  }

  if (!args.json.empty()) WriteJson(args.json, args, report);

  if (!report.complete) {
    std::fprintf(stderr, "load run incomplete%s\n",
                 report.sessions_failed > 0 ? " (sessions failed)"
                                            : " (timed out)");
    return session::kExitFailure;
  }
  return session::kExitOk;
}
