#include "session/flags.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <set>

#include "net/socket.h"

namespace hdsky {
namespace session {

using common::Status;

ExitCode ReportFailure(std::FILE* err, const std::string& what,
                       const Status& status) {
  std::fprintf(err, "%s: %s\n", what.c_str(), status.ToString().c_str());
  if (!status.IsUnavailable()) return kExitFailure;
  std::fprintf(err,
               "%s: the server is shedding load (rate limited / at "
               "capacity), not failing; retry later\n",
               what.c_str());
  return kExitUnavailable;
}

namespace {

Flag MakeFlag(std::string name, Flag::Kind kind, std::string value_name,
              std::string help) {
  Flag f;
  f.name = std::move(name);
  f.kind = kind;
  f.value_name = std::move(value_name);
  f.help = std::move(help);
  return f;
}

Condition MakeCondition(std::string flag, Condition::Op op) {
  Condition c;
  c.flag = std::move(flag);
  c.op = op;
  return c;
}

}  // namespace

Flag String(std::string name, std::string value_name, std::string help,
            std::string* dest) {
  Flag f = MakeFlag(std::move(name), Flag::Kind::kString,
                    std::move(value_name), std::move(help));
  f.dest = dest;
  return f;
}

Flag Int(std::string name, std::string value_name, int64_t min, int64_t max,
         std::string help, int64_t* dest) {
  Flag f = MakeFlag(std::move(name), Flag::Kind::kInt, std::move(value_name),
                    std::move(help));
  f.dest = dest;
  f.min = min;
  f.max = max;
  return f;
}

Flag Prob(std::string name, std::string help, double* dest) {
  Flag f = MakeFlag(std::move(name), Flag::Kind::kProb, "P", std::move(help));
  f.dest = dest;
  return f;
}

Flag Choice(std::string name, std::string value_name,
            std::vector<std::string> choices, std::string help,
            std::string* dest) {
  Flag f = MakeFlag(std::move(name), Flag::Kind::kChoice,
                    std::move(value_name), std::move(help));
  f.dest = dest;
  f.choices = std::move(choices);
  return f;
}

Flag Switch(std::string name, std::string help, bool* dest) {
  Flag f = MakeFlag(std::move(name), Flag::Kind::kSwitch, "", std::move(help));
  f.dest = dest;
  return f;
}

Flag Endpoints(std::string name, int64_t max_entries, std::string help,
               std::vector<std::string>* dest) {
  Flag f = MakeFlag(std::move(name), Flag::Kind::kEndpoints,
                    max_entries == 1 ? "HOST:PORT" : "HOST:PORT[,...]",
                    std::move(help));
  f.dest = dest;
  f.max = max_entries;
  return f;
}

Condition Given(std::string flag) {
  return MakeCondition(std::move(flag), Condition::Op::kGiven);
}

Condition Equals(std::string flag, std::string value) {
  Condition c = MakeCondition(std::move(flag), Condition::Op::kEquals);
  c.values = {std::move(value)};
  return c;
}

Condition NotIn(std::string flag, std::vector<std::string> values) {
  Condition c = MakeCondition(std::move(flag), Condition::Op::kNotIn);
  c.values = std::move(values);
  return c;
}

Condition Above(std::string flag, int64_t bound) {
  Condition c = MakeCondition(std::move(flag), Condition::Op::kAbove);
  c.bound = bound;
  return c;
}

void FlagTable::Add(std::vector<Flag> more) {
  for (Flag& f : more) flags.push_back(std::move(f));
}

void FlagTable::ExactlyOne(std::vector<std::string> alternatives,
                           std::string message) {
  Rule r{Rule::Kind::kExactlyOne, {}, {}, std::move(message)};
  for (std::string& f : alternatives) r.then.push_back(Given(std::move(f)));
  rules.push_back(std::move(r));
}

void FlagTable::Requires(std::vector<Condition> when, Condition then,
                         std::string message) {
  rules.push_back(Rule{Rule::Kind::kRequires, std::move(when),
                       {std::move(then)}, std::move(message)});
}

void FlagTable::Excludes(std::vector<Condition> when,
                         const std::vector<std::string>& excluded,
                         const std::string& message) {
  for (const std::string& f : excluded) {
    Excludes(when, Given(f), f + " " + message);
  }
}

void FlagTable::Excludes(std::vector<Condition> when, Condition then,
                         std::string message) {
  rules.push_back(Rule{Rule::Kind::kExcludes, std::move(when),
                       {std::move(then)}, std::move(message)});
}

namespace {

const Flag* Find(const FlagTable& table, const std::string& name) {
  for (const Flag& f : table.flags) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

/// Strict integer parse: the whole token must be a base-10 number.
/// "12x", "", " 3" and out-of-range values all fail.
bool ParseInt64(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end == s.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

bool ChoiceMatches(const std::string& choice, const std::string& value) {
  if (!choice.empty() && choice.back() == ':') {
    return value.compare(0, choice.size(), choice) == 0;
  }
  return value == choice;
}

Status SetValue(const Flag& f, const std::string& value) {
  const Status invalid =
      Status::InvalidArgument("invalid value for " + f.name + ": " + value);
  switch (f.kind) {
    case Flag::Kind::kString:
      *std::get<std::string*>(f.dest) = value;
      return Status::OK();
    case Flag::Kind::kInt: {
      int64_t v = 0;
      if (!ParseInt64(value, &v) || v < f.min || v > f.max) return invalid;
      *std::get<int64_t*>(f.dest) = v;
      return Status::OK();
    }
    case Flag::Kind::kProb: {
      char* end = nullptr;
      errno = 0;
      const double v = std::strtod(value.c_str(), &end);
      if (value.empty() || errno != 0 || *end != '\0' ||
          !(v >= 0.0 && v <= 1.0)) {
        return invalid;
      }
      *std::get<double*>(f.dest) = v;
      return Status::OK();
    }
    case Flag::Kind::kChoice:
      for (const std::string& c : f.choices) {
        if (ChoiceMatches(c, value)) {
          *std::get<std::string*>(f.dest) = value;
          return Status::OK();
        }
      }
      return invalid;
    case Flag::Kind::kEndpoints: {
      std::vector<std::string> endpoints;
      size_t begin = 0;
      while (begin <= value.size()) {
        const size_t comma = std::min(value.find(',', begin), value.size());
        const std::string endpoint = value.substr(begin, comma - begin);
        std::string host;
        uint16_t port = 0;
        const Status s = net::ParseHostPort(endpoint, &host, &port);
        if (!s.ok()) {
          return Status::InvalidArgument("invalid " + f.name + " endpoint '" +
                                         endpoint + "': " + s.ToString());
        }
        endpoints.push_back(endpoint);
        begin = comma + 1;
      }
      if (static_cast<int64_t>(endpoints.size()) > f.max) {
        return Status::InvalidArgument(f.name + " takes one HOST:PORT");
      }
      *std::get<std::vector<std::string>*>(f.dest) = std::move(endpoints);
      return Status::OK();
    }
    case Flag::Kind::kSwitch:
      break;
  }
  return invalid;
}

bool Holds(const FlagTable& table, const std::set<std::string>& given,
           const Condition& c) {
  if (c.op == Condition::Op::kGiven) return given.count(c.flag) > 0;
  const Flag* f = Find(table, c.flag);
  if (f == nullptr) return false;
  if (c.op == Condition::Op::kAbove) {
    if (const auto* list = std::get_if<std::vector<std::string>*>(&f->dest)) {
      return static_cast<int64_t>((*list)->size()) > c.bound;
    }
    return *std::get<int64_t*>(f->dest) > c.bound;
  }
  const std::string& value = *std::get<std::string*>(f->dest);
  const bool listed =
      std::find(c.values.begin(), c.values.end(), value) != c.values.end();
  return c.op == Condition::Op::kEquals ? listed : !listed;
}

bool Violated(const FlagTable& table, const std::set<std::string>& given,
              const Rule& rule) {
  for (const Condition& c : rule.when) {
    if (!Holds(table, given, c)) return false;
  }
  size_t holding = 0;
  for (const Condition& c : rule.then) holding += Holds(table, given, c);
  switch (rule.kind) {
    case Rule::Kind::kExactlyOne:
      return holding != 1;
    case Rule::Kind::kRequires:
      return holding != rule.then.size();
    case Rule::Kind::kExcludes:
      return holding != 0;
  }
  return false;
}

std::string Spelled(const FlagTable& table, const std::string& name) {
  const Flag* f = Find(table, name);
  return f == nullptr || f->value_name.empty() ? name
                                               : name + " " + f->value_name;
}

}  // namespace

Status ParseFlags(const FlagTable& table, int argc, const char* const* argv) {
  std::set<std::string> given;
  for (int i = 1; i < argc; ++i) {
    const std::string name = argv[i];
    const Flag* f = Find(table, name);
    if (f == nullptr || (f->kind != Flag::Kind::kSwitch && i + 1 >= argc)) {
      return Status::InvalidArgument("unknown or incomplete flag: " + name);
    }
    if (f->kind == Flag::Kind::kSwitch) {
      *std::get<bool*>(f->dest) = true;
    } else {
      HDSKY_RETURN_IF_ERROR(SetValue(*f, argv[++i]));
    }
    given.insert(name);
  }
  std::string violations;
  for (const Rule& rule : table.rules) {
    if (!Violated(table, given, rule)) continue;
    if (!violations.empty()) violations += "\n";
    violations += rule.message;
  }
  if (!violations.empty()) return Status::InvalidArgument(violations);
  return Status::OK();
}

std::string Usage(const FlagTable& table) {
  // The synopsis spells out the unconditional rules: the required
  // alternatives and the required flags.
  std::string out = "usage: " + table.program;
  for (const Rule& rule : table.rules) {
    if (!rule.when.empty() || rule.kind == Rule::Kind::kExcludes) continue;
    std::string alternatives;
    for (const Condition& c : rule.then) {
      if (!alternatives.empty()) alternatives += " | ";
      alternatives += Spelled(table, c.flag);
    }
    out += rule.then.size() > 1 ? " (" + alternatives + ")"
                                : " " + alternatives;
  }
  out += " [options]\n";
  for (const Flag& f : table.flags) {
    const std::string left = Spelled(table, f.name);
    std::string text;
    for (const std::string& c : f.choices) {
      if (!text.empty()) text += " | ";
      text += c.back() == ':' ? c + "<name>" : c;
    }
    text += text.empty() || f.help.empty() ? f.help : " " + f.help;
    out += "  " + left;
    out += left.size() < 21 ? std::string(21 - left.size(), ' ')
                            : "\n" + std::string(23, ' ');
    out += text + "\n";
  }
  return out;
}

bool ParseOrUsage(const FlagTable& table, int argc, char** argv) {
  const Status s = ParseFlags(table, argc, argv);
  if (s.ok()) return true;
  std::fprintf(stderr, "%s\n%s", s.message().c_str(), Usage(table).c_str());
  return false;
}

// ---------------------------------------------------------------------
// The tools' tables.

namespace {

const std::vector<std::string> kDemos = {"flights", "bluenile", "autos",
                                         "route"};
const std::vector<std::string> kRankings = {"sum", "lex:"};

/// --data / --demo and the generator and ranking flags (discover, serve,
/// pack).
std::vector<Flag> DataFlags(SourceConfig* s) {
  return {
      String("--data", "PATH", "input CSV (dataset/csv.h)", &s->data),
      Choice("--demo", "NAME", kDemos, "", &s->demo),
      Int("--n", "N", 1, INT64_MAX, "demo dataset size (default: the paper's)",
          &s->n),
      Int("--seed", "S", 0, INT64_MAX, "demo generator seed (default 42)",
          &s->seed),
      Choice("--ranking", "R", kRankings, "(default sum)", &s->ranking),
  };
}

/// The packed-file source and its buffer pool (discover, serve).
std::vector<Flag> PagedFlags(SourceConfig* s) {
  return {
      String("--dataset-file", "FILE",
             "packed block file (hdsky_pack); runs out-of-core",
             &s->dataset_file),
      Int("--buffer-pool-bytes", "N", 1, INT64_MAX,
          "resident budget for --dataset-file (default 256 MiB)",
          &s->buffer_pool_bytes),
      Choice("--read-path", "P", {"mmap", "pread"},
             "page fetch for --dataset-file (default mmap)", &s->read_path),
  };
}

/// The local top-k interface (discover, serve).
std::vector<Flag> InterfaceFlags(SourceConfig* s) {
  return {
      Int("--k", "K", 1, 1000000, "interface page size (default 10)", &s->k),
      Int("--budget", "B", 0, INT64_MAX, "query budget (0 = unlimited)",
          &s->budget),
  };
}

/// A listening socket (serve, proxy).
std::vector<Flag> ListenFlags(int64_t* port, std::string* bind) {
  return {
      Int("--port", "P", 0, 65535, "TCP port, 0 = ephemeral (default 0)",
          port),
      String("--bind", "ADDR", "IPv4 bind address (default 127.0.0.1)", bind),
  };
}

const std::vector<std::string> kPoolFlags = {"--buffer-pool-bytes",
                                             "--read-path"};

}  // namespace

FlagTable DiscoverFlags(SessionConfig* c) {
  FlagTable t{"hdsky_discover"};
  t.Add(DataFlags(&c->source));
  t.Add(PagedFlags(&c->source));
  t.Add(InterfaceFlags(&c->source));
  t.Add({
      Endpoints("--connect", INT64_MAX,
                "discover against remote hdsky_serve(s)", &c->connect),
      Choice("--federate", "MODE", {"union", "join"},
             "over every --connect endpoint (sq/rq only)", &c->federate),
      String("--join-attr", "NAME", "entity key for --federate join",
             &c->join_attr),
      Int("--round-budget", "N", 0, INT64_MAX,
          "paid queries per federation round (0 = auto)", &c->round_budget),
      Int("--probe-attempts", "N", 0, INT64_MAX,
          "re-probes before a failed backend is dropped (default 3)",
          &c->probe_attempts),
      Int("--probe-backoff", "N", 1, 1 << 20,
          "rounds before the first re-probe (default 2)", &c->probe_backoff),
      String("--federation-json", "PATH", "write the federation benchmark JSON",
             &c->federation_json),
      String("--dump-data", "PATH", "write the local dataset as CSV and exit",
             &c->dump_data),
      Choice("--algorithm", "A", {"auto", "sq", "rq", "pq", "mq", "baseline"},
             "(default auto)", &c->algorithm),
      Int("--band", "H", 1, 1000000, "discover the top-H sky band (RQ/PQ)",
          &c->band),
      Switch("--cache", "stack a query cache over the source", &c->cache),
      String("--cache-file", "PATH",
             "persist the cache across runs (implies --cache)",
             &c->cache_file),
      String("--journal", "DIR",
             "durable session: journal + checkpoints; rerun to resume",
             &c->journal),
      Int("--sync-every", "N", 1, 1000000,
          "journal group-fsync interval (default 1)", &c->sync_every),
      Int("--checkpoint-every", "N", 1, INT64_MAX,
          "answers per sealed journal segment (default 256)",
          &c->checkpoint_every),
      String("--trace", "PATH", "write the anytime progress trace as CSV",
             &c->trace),
      String("--crash-point", "SPEC",
             "die at a named recovery boundary (testing)", &c->crash_point),
      String("--out", "PATH", "write discovered tuples as CSV", &c->out),
      Int("--trials", "T", 1, 1000000,
          "independent trials, seeds S..S+T-1 (--demo)", &c->trials),
      Int("--threads", "W", 1, 4096,
          "workers for --trials, or the federation fan-out (default "
          "$HDSKY_THREADS)",
          &c->threads),
  });

  t.ExactlyOne({"--data", "--demo", "--dataset-file", "--connect"},
               "exactly one of --data / --demo / --dataset-file / --connect "
               "is required");
  for (const std::string& f : kPoolFlags) {
    t.Requires({Given(f)}, Given("--dataset-file"),
               f + " requires --dataset-file");
  }
  t.Excludes({Given("--dataset-file")},
             {"--n", "--seed", "--ranking", "--trials", "--dump-data"},
             "configures local generation/ranking; a packed --dataset-file "
             "fixes these at pack time");
  // The server controls a remote interface. Under --federate, --budget
  // and --threads configure the coordinator instead and stay legal.
  t.Excludes({Given("--connect")}, {"--n", "--k", "--ranking", "--seed",
                                    "--trials"},
             "configures a local interface; the server controls it under "
             "--connect");
  for (const std::string f : {"--budget", "--threads"}) {
    t.Requires({Given("--connect"), Given(f)}, Given("--federate"),
               f + " configures a local interface; beside --connect it "
                   "needs --federate, where it configures the coordinator");
  }
  t.Excludes({Given("--connect")}, Given("--dump-data"),
             "--dump-data exports a locally generated dataset; it cannot be "
             "combined with --connect");
  t.Requires({Given("--federate")}, Given("--connect"),
             "--federate requires --connect");
  t.Requires({Above("--connect", 1)}, Given("--federate"),
             "multiple --connect endpoints need --federate union|join");
  t.Requires({Equals("--federate", "join")}, Given("--join-attr"),
             "--federate join needs --join-attr");
  t.Excludes({Equals("--federate", "union")}, Given("--join-attr"),
             "--join-attr only applies to --federate join");
  t.Excludes({Given("--federate")}, NotIn("--algorithm", {"auto", "sq", "rq"}),
             "--federate drives the checkpointable sq/rq algorithms only");
  t.Excludes({Given("--federate")},
             {"--band", "--cache", "--cache-file", "--trace"},
             "is a single-site feature; it cannot be combined with "
             "--federate");
  t.Excludes({Equals("--federate", "join")}, Given("--out"),
             "--out writes union-mode representative tuples; join mode has "
             "no full tuples to write");
  for (const std::string f : {"--round-budget", "--federation-json",
                               "--probe-attempts", "--probe-backoff"}) {
    t.Requires({Given(f)}, Given("--federate"), f + " requires --federate");
  }
  t.Requires({Above("--trials", 1)}, Given("--demo"),
             "--trials needs --demo (seeds vary per trial)");
  t.Excludes({Above("--trials", 1)},
             {"--journal", "--cache", "--cache-file", "--trace", "--dump-data",
              "--out"},
             "describes one run; it cannot be combined with --trials");
  for (const std::string f : {"--sync-every", "--checkpoint-every"}) {
    t.Requires({Given(f)}, Given("--journal"), f + " requires --journal");
  }
  return t;
}

FlagTable ServeFlags(ServeConfig* c) {
  FlagTable t{"hdsky_serve"};
  t.Add(DataFlags(&c->source));
  t.Add(PagedFlags(&c->source));
  t.Add(InterfaceFlags(&c->source));
  t.Add(ListenFlags(&c->port, &c->bind));
  t.Add({
      Int("--client-budget", "B", 0, INT64_MAX,
          "per-client-session budget (0 = unlimited)", &c->client_budget),
      Int("--max-connections", "C", 1, 65536,
          "concurrent connections (default 4096)", &c->max_connections),
      Int("--loops", "L", 0, 256, "event-loop threads (0 = auto)", &c->loops),
      Int("--workers", "W", 0, 256,
          "ignored: every query is answered on the loops", &c->workers),
      Int("--idle-timeout-ms", "T", 0, INT64_MAX,
          "idle eviction, 0 = never (default 60000)", &c->idle_timeout_ms),
  });
  t.ExactlyOne({"--data", "--demo", "--dataset-file"},
               "exactly one of --data / --demo / --dataset-file is required");
  for (const std::string& f : kPoolFlags) {
    t.Requires({Given(f)}, Given("--dataset-file"),
               f + " requires --dataset-file");
  }
  t.Excludes({Given("--dataset-file")}, Given("--ranking"),
             "--ranking is baked into a packed --dataset-file at pack time");
  return t;
}

FlagTable PackFlags(PackConfig* c) {
  FlagTable t{"hdsky_pack"};
  t.Add(DataFlags(&c->source));
  t.Add({
      String("--out", "FILE", "output block file (required)", &c->out),
      Int("--rows-per-block", "B", 1, 1 << 20,
          "most rows per k-d leaf page (default " +
              std::to_string(data::kDefaultRowsPerBlock) + ")",
          &c->rows_per_block),
      Choice("--compress", "MODE", {"auto", "off"},
             "page run encoding (auto = smallest per run, default; "
             "off = raw)",
             &c->compress),
      Switch("--stats", "print page/k-d/compression stats", &c->stats),
  });
  t.ExactlyOne({"--data", "--demo"},
               "exactly one of --data / --demo is required");
  t.Requires({}, Given("--out"), "--out is required");
  return t;
}

FlagTable ProxyFlags(ProxyConfig* c) {
  FlagTable t{"hdsky_proxy"};
  t.Add({Endpoints("--upstream", 1, "the real server to forward to",
                   &c->upstream)});
  t.Add(ListenFlags(&c->port, &c->bind));
  t.Add({
      Int("--seed", "S", 0, INT64_MAX, "fault-decision seed (default 1)",
          &c->seed),
      Prob("--drop", "frame drop probability [0,1]", &c->drop),
      Prob("--truncate", "frame truncation probability [0,1]", &c->truncate),
      Prob("--rate-limit", "spurious BUSY probability [0,1]", &c->rate_limit),
      Prob("--delay", "frame delay probability [0,1]", &c->delay),
      Int("--delay-ms", "MS", 0, 60000, "delay length (default 20)",
          &c->delay_ms),
      Int("--blackout-after", "N", -1, INT64_MAX,
          "kill client queries [N, N+M) then recover; -1 disables",
          &c->blackout_after),
      Int("--blackout-queries", "M", 0, INT64_MAX,
          "blackout window length (default 0)", &c->blackout_queries),
      Int("--io-timeout-ms", "MS", 1, INT64_MAX,
          "per-connection I/O backstop (default 30000)", &c->io_timeout_ms),
  });
  t.Requires({}, Given("--upstream"), "--upstream is required");
  return t;
}

FlagTable LoadgenFlags(LoadgenConfig* c) {
  FlagTable t{"hdsky_loadgen"};
  t.Add({
      Int("--sessions", "N", 1, 1000000, "concurrent sessions (default 1000)",
          &c->sessions),
      Int("--queries", "Q", 1, 1000000, "queries per session (default 32)",
          &c->queries),
      Int("--pipeline", "D", 1, 4096,
          "pipelined queries per connection (default 8)", &c->pipeline),
      Int("--loops", "L", 0, 256, "client event loops (0 = auto)",
          &c->loops),
      Int("--timeout-ms", "T", 1, INT64_MAX,
          "whole-run deadline (default 120000)", &c->timeout_ms),
      Int("--seed", "S", 0, INT64_MAX, "workload seed (default 42)",
          &c->seed),
      Endpoints("--connect", 1, "target an external server", &c->connect),
      Switch("--probe", "pre-flight one client, report wire counters",
             &c->probe),
      String("--json", "PATH", "write a google-benchmark-shaped JSON report",
             &c->json),
      // The in-process server's knobs.
      Int("--server-loops", "L", 0, 256, "server event loops (0 = auto)",
          &c->server_loops),
      Int("--n", "N", 1, INT64_MAX, "synthetic dataset size (default 20000)",
          &c->n),
      Int("--m", "M", 2, 64, "synthetic attributes (default 3)", &c->m),
      Int("--k", "K", 1, 1000000, "interface page size (default 10)", &c->k),
  });
  t.Excludes({Given("--connect")},
             {"--server-loops", "--n", "--m", "--k"},
             "configures the in-process server; it cannot be combined with "
             "--connect");
  return t;
}

}  // namespace session
}  // namespace hdsky
