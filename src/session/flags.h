// Declarative command-line flags for the hdsky tools.
//
// Each tool declares its flags once, in a FlagTable: name, kind, help
// text and the config field the value lands in. Flag conflicts are
// declared once too, as Rules over Conditions (exactly-one-of, requires,
// excludes), each with its message. ParseFlags and Usage are generated
// from the table, so the usage text, the value checks and the conflict
// checks cannot drift apart.
//
// The five tools' tables (DiscoverFlags, ServeFlags, PackFlags,
// ProxyFlags, LoadgenFlags) live here, next to the config structs they
// fill, so tests can enumerate every rule without running a binary.

#ifndef HDSKY_SESSION_FLAGS_H_
#define HDSKY_SESSION_FLAGS_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"
#include "data/block_file.h"

namespace hdsky {
namespace session {

/// The exit-code contract of every hdsky tool.
enum ExitCode : int {
  /// Success, including anytime-partial results (budget or interrupt).
  kExitOk = 0,
  /// Everything else: protocol failure, bad data, I/O.
  kExitFailure = 1,
  /// EX_USAGE: a flag or flag combination is invalid. No work was done.
  kExitUsage = 64,
  /// EX_DATAERR: a --journal directory was written by an older release
  /// in a format this one does not read (a v1 snapshot). Nothing in it
  /// was changed: finish the session with that release, or start over
  /// with a fresh directory.
  kExitDataFormat = 65,
  /// EX_UNAVAILABLE: a backend is shedding load, or a durable session
  /// being resumed cannot reach a backend it must replay against. Nothing
  /// is broken and the journal keeps every paid answer; retry later.
  kExitUnavailable = 69,
};

/// Prints "what: status" to `err` and maps the status onto the exit
/// contract: Unavailable (load shedding) is kExitUnavailable, anything
/// else kExitFailure.
ExitCode ReportFailure(std::FILE* err, const std::string& what,
                       const common::Status& status);

struct Flag {
  enum class Kind {
    kString,
    kInt,        // base-10 integer in [min, max]
    kProb,       // probability in [0, 1]
    kChoice,     // one of `choices`; an entry ending in ':' is a prefix
    kSwitch,     // takes no value; sets its bool to true
    kEndpoints,  // HOST:PORT[,HOST:PORT...], at most `max` entries
  };
  std::string name;
  Kind kind = Kind::kString;
  std::string value_name;  // shown in the usage text ("N", "PATH")
  std::string help;
  std::variant<std::string*, int64_t*, double*, bool*,
               std::vector<std::string>*>
      dest;
  int64_t min = 0;
  int64_t max = 0;
  std::vector<std::string> choices;
};

Flag String(std::string name, std::string value_name, std::string help,
            std::string* dest);
Flag Int(std::string name, std::string value_name, int64_t min, int64_t max,
         std::string help, int64_t* dest);
Flag Prob(std::string name, std::string help, double* dest);
Flag Choice(std::string name, std::string value_name,
            std::vector<std::string> choices, std::string help,
            std::string* dest);
Flag Switch(std::string name, std::string help, bool* dest);
Flag Endpoints(std::string name, int64_t max_entries, std::string help,
               std::vector<std::string>* dest);

/// A predicate over one flag. Value predicates read the flag's current
/// value, which is its default when the flag was not given.
struct Condition {
  enum class Op {
    kGiven,   // the flag appears on the command line
    kEquals,  // its value is values[0]
    kNotIn,   // its value is none of `values`
    kAbove,   // its integer value, or its number of endpoints, > bound
  };
  std::string flag;
  Op op = Op::kGiven;
  std::vector<std::string> values;
  int64_t bound = 0;
};

Condition Given(std::string flag);
Condition Equals(std::string flag, std::string value);
Condition NotIn(std::string flag, std::vector<std::string> values);
Condition Above(std::string flag, int64_t bound);

/// Applies when every `when` condition holds (always, if `when` is
/// empty). Then exactly one of `then` must hold (kExactlyOne), all of
/// them (kRequires), or none (kExcludes).
struct Rule {
  enum class Kind { kExactlyOne, kRequires, kExcludes };
  Kind kind = Kind::kRequires;
  std::vector<Condition> when;
  std::vector<Condition> then;
  std::string message;
};

struct FlagTable {
  explicit FlagTable(std::string program_name)
      : program(std::move(program_name)) {}

  std::string program;
  std::vector<Flag> flags;
  std::vector<Rule> rules;

  void Add(std::vector<Flag> more);
  void ExactlyOne(std::vector<std::string> flags, std::string message);
  void Requires(std::vector<Condition> when, Condition then,
                std::string message);
  /// One kExcludes rule per flag in `flags`, each "FLAG " + `message`.
  void Excludes(std::vector<Condition> when,
                const std::vector<std::string>& flags,
                const std::string& message);
  void Excludes(std::vector<Condition> when, Condition then,
                std::string message);
};

/// Parses argv[1..argc) into the table's destinations, then checks its
/// rules. Fails with InvalidArgument on an unknown flag, a missing or
/// malformed value, or violated rules (every violated rule's message,
/// one per line). Repeated flags keep the last value.
common::Status ParseFlags(const FlagTable& table, int argc,
                          const char* const* argv);

/// The generated usage text: a synopsis of the unconditional rules, then
/// one line per flag.
std::string Usage(const FlagTable& table);

/// ParseFlags for a tool's main: on failure prints the error and the
/// usage text to stderr and returns false (exit kExitUsage).
bool ParseOrUsage(const FlagTable& table, int argc, char** argv);

// ---------------------------------------------------------------------
// The tools' configs and tables.

/// Where a tool's data comes from and the local interface over it.
/// Shared by hdsky_discover, hdsky_serve and hdsky_pack.
struct SourceConfig {
  std::string data;          // --data: a self-describing CSV
  std::string demo;          // --demo: a built-in simulator
  std::string dataset_file;  // --dataset-file: a packed block file
  int64_t buffer_pool_bytes = 0;  // 0 = PagedTableOptions default
  std::string read_path = "mmap";
  int64_t n = 0;  // 0 = the simulator's paper-sized default
  int64_t seed = 42;
  std::string ranking = "sum";
  int64_t k = 10;
  int64_t budget = 0;
};

/// hdsky_discover's flags. See session/session.h for how they run.
struct SessionConfig {
  SourceConfig source;
  std::vector<std::string> connect;  // --connect endpoints
  std::string federate;              // "" | "union" | "join"
  std::string join_attr;
  int64_t round_budget = 0;
  int64_t probe_attempts = 3;
  int64_t probe_backoff = 2;
  std::string federation_json;
  std::string dump_data;
  std::string algorithm = "auto";
  int64_t band = 0;
  bool cache = false;
  std::string cache_file;  // implies cache
  std::string journal;
  int64_t sync_every = 1;
  int64_t checkpoint_every = 256;
  std::string trace;
  std::string crash_point;
  std::string out;
  int64_t trials = 1;
  int64_t threads = 0;  // 0 = $HDSKY_THREADS
};

struct ServeConfig {
  SourceConfig source;
  int64_t client_budget = 0;
  int64_t port = 0;
  std::string bind = "127.0.0.1";
  int64_t max_connections = 4096;
  int64_t loops = 0;
  int64_t workers = 0;  // accepted and ignored
  int64_t idle_timeout_ms = 60000;
};

struct PackConfig {
  SourceConfig source;
  std::string out;
  int64_t rows_per_block = data::kDefaultRowsPerBlock;
  std::string compress = "auto";
  bool stats = false;
};

struct ProxyConfig {
  std::vector<std::string> upstream;
  int64_t port = 0;
  std::string bind = "127.0.0.1";
  int64_t seed = 1;
  double drop = 0.0;
  double truncate = 0.0;
  double rate_limit = 0.0;
  double delay = 0.0;
  int64_t delay_ms = 20;
  int64_t blackout_after = -1;
  int64_t blackout_queries = 0;
  int64_t io_timeout_ms = 30000;
};

struct LoadgenConfig {
  int64_t sessions = 1000;
  int64_t queries = 32;
  int64_t pipeline = 8;
  int64_t loops = 0;
  int64_t server_loops = 0;
  int64_t n = 20000;
  int64_t m = 3;
  int64_t k = 10;
  int64_t timeout_ms = 120000;
  int64_t seed = 42;
  std::vector<std::string> connect;
  bool probe = false;
  std::string json;
};

FlagTable DiscoverFlags(SessionConfig* config);
FlagTable ServeFlags(ServeConfig* config);
FlagTable PackFlags(PackConfig* config);
FlagTable ProxyFlags(ProxyConfig* config);
FlagTable LoadgenFlags(LoadgenConfig* config);

}  // namespace session
}  // namespace hdsky

#endif  // HDSKY_SESSION_FLAGS_H_
