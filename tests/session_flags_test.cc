// The declarative flag tables of the five tools, checked from the tables
// themselves: every declared rule is violated by a minimal command line
// (a usage error naming exactly that rule) and satisfied by another (a
// clean parse), and every flag rejects malformed values.

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "session/flags.h"

namespace hdsky {
namespace session {
namespace {

using Argv = std::vector<std::string>;
using common::Status;

/// One tool's table, plus a parser that binds a fresh config per call.
struct Tool {
  std::string name;
  std::shared_ptr<void> scratch;  // the config `table` points into
  FlagTable table{""};
  std::function<Status(const Argv&)> parse;
};

template <typename Config>
Tool MakeTool(FlagTable (*build)(Config*)) {
  auto scratch = std::make_shared<Config>();
  Tool tool;
  tool.table = build(scratch.get());
  tool.name = tool.table.program;
  tool.scratch = scratch;
  tool.parse = [build](const Argv& args) {
    Config config;
    const FlagTable table = build(&config);
    std::vector<const char*> argv = {"tool"};
    for (const std::string& a : args) argv.push_back(a.c_str());
    return ParseFlags(table, static_cast<int>(argv.size()), argv.data());
  };
  return tool;
}

std::vector<Tool> AllTools() {
  return {MakeTool(&DiscoverFlags), MakeTool(&ServeFlags),
          MakeTool(&PackFlags), MakeTool(&ProxyFlags),
          MakeTool(&LoadgenFlags)};
}

const Flag& FindFlag(const FlagTable& t, const std::string& name) {
  for (const Flag& f : t.flags) {
    if (f.name == name) return f;
  }
  ADD_FAILURE() << t.program << ": rule names undeclared flag " << name;
  static const Flag kMissing;
  return kMissing;
}

/// A valid value for `f`.
std::string Sample(const Flag& f) {
  switch (f.kind) {
    case Flag::Kind::kInt:
      return std::to_string(f.min);
    case Flag::Kind::kProb:
      return "0.5";
    case Flag::Kind::kChoice:
      return f.choices[0];
    case Flag::Kind::kEndpoints:
      return "127.0.0.1:1";
    default:
      return "x";
  }
}

/// Command-line tokens that make `c` hold.
Argv Tokens(const FlagTable& t, const Condition& c) {
  const Flag& f = FindFlag(t, c.flag);
  switch (c.op) {
    case Condition::Op::kGiven:
      if (f.kind == Flag::Kind::kSwitch) return {f.name};
      return {f.name, Sample(f)};
    case Condition::Op::kEquals:
      return {f.name, c.values[0]};
    case Condition::Op::kNotIn:
      for (const std::string& choice : f.choices) {
        if (std::find(c.values.begin(), c.values.end(), choice) ==
            c.values.end()) {
          return {f.name, choice};
        }
      }
      ADD_FAILURE() << c.flag << ": no value outside the rule's set";
      return {};
    case Condition::Op::kAbove:
      if (f.kind != Flag::Kind::kEndpoints) {
        return {f.name, std::to_string(c.bound + 1)};
      }
      std::string list;
      for (int64_t i = 0; i <= c.bound; ++i) {
        list += (i > 0 ? ",127.0.0.1:" : "127.0.0.1:") + std::to_string(i + 1);
      }
      return {f.name, list};
  }
  return {};
}

void Append(Argv* argv, const Argv& more) {
  argv->insert(argv->end(), more.begin(), more.end());
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

bool Mentions(const Argv& argv, const std::string& flag) {
  return std::find(argv.begin(), argv.end(), flag) != argv.end();
}

/// Adds flags to `argv` until every rule but `target` holds: a violated
/// requirement gets what it requires, a missing exactly-one-of gets its
/// first alternative not in `avoid`. Returns the final parse status.
Status Complete(const Tool& tool, const Rule& target,
                const std::set<std::string>& avoid, Argv* argv) {
  Status s;
  for (int round = 0; round < 16; ++round) {
    s = tool.parse(*argv);
    if (s.ok()) return s;
    const std::vector<std::string> lines = Lines(s.message());
    const Rule* fix = nullptr;
    for (const Rule& rule : tool.table.rules) {
      if (&rule == &target || std::find(lines.begin(), lines.end(),
                                         rule.message) == lines.end()) {
        continue;
      }
      if (rule.kind == Rule::Kind::kRequires) {
        fix = &rule;
        break;
      }
      if (rule.kind == Rule::Kind::kExactlyOne && fix == nullptr) fix = &rule;
    }
    if (fix == nullptr) return s;
    if (fix->kind == Rule::Kind::kRequires) {
      for (const Condition& c : fix->then) Append(argv, Tokens(tool.table, c));
      continue;
    }
    const Condition* pick = nullptr;
    for (const Condition& c : fix->then) {
      if (Mentions(*argv, c.flag)) return s;  // too many: not fixable here
      if (pick == nullptr && avoid.count(c.flag) == 0) pick = &c;
    }
    if (pick == nullptr) return s;
    Append(argv, Tokens(tool.table, *pick));
  }
  return s;
}

std::string Join(const Argv& argv) {
  std::string out;
  for (const std::string& a : argv) out += (out.empty() ? "" : " ") + a;
  return out;
}

TEST(SessionFlagsTest, EveryRuleIsViolableAndSatisfiable) {
  for (const Tool& tool : AllTools()) {
    ASSERT_FALSE(tool.table.rules.empty()) << tool.name;
    for (const Rule& rule : tool.table.rules) {
      SCOPED_TRACE(tool.name + ": " + rule.message);
      Argv violate;
      Argv satisfy;
      std::set<std::string> avoid;
      for (const Condition& c : rule.when) {
        Append(&violate, Tokens(tool.table, c));
        Append(&satisfy, Tokens(tool.table, c));
      }
      for (const Condition& c : rule.then) avoid.insert(c.flag);
      switch (rule.kind) {
        case Rule::Kind::kExactlyOne:
          Append(&violate, Tokens(tool.table, rule.then[0]));
          Append(&violate, Tokens(tool.table, rule.then[1]));
          Append(&satisfy, Tokens(tool.table, rule.then[0]));
          break;
        case Rule::Kind::kRequires:
          for (const Condition& c : rule.then) {
            Append(&satisfy, Tokens(tool.table, c));
          }
          break;
        case Rule::Kind::kExcludes:
          Append(&violate, Tokens(tool.table, rule.then[0]));
          break;
      }
      const Status bad = Complete(tool, rule, avoid, &violate);
      EXPECT_FALSE(bad.ok()) << Join(violate);
      EXPECT_TRUE(bad.IsInvalidArgument()) << bad;
      EXPECT_EQ(bad.message(), rule.message) << Join(violate);
      const Status good = Complete(tool, rule, avoid, &satisfy);
      EXPECT_TRUE(good.ok()) << Join(satisfy) << ": " << good;
    }
  }
}

TEST(SessionFlagsTest, ExactlyOneOfRejectsNone) {
  // The other half of exactly-one-of: none given. Only the source rules
  // of discover/serve/pack are exactly-one-of rules.
  for (const Tool& tool : AllTools()) {
    for (const Rule& rule : tool.table.rules) {
      if (rule.kind != Rule::Kind::kExactlyOne) continue;
      SCOPED_TRACE(tool.name);
      Argv none;
      std::set<std::string> avoid;
      for (const Condition& c : rule.then) avoid.insert(c.flag);
      const Status s = Complete(tool, rule, avoid, &none);
      EXPECT_EQ(s.message(), rule.message) << Join(none);
    }
  }
}

TEST(SessionFlagsTest, RulesNameDeclaredFlagsAndHaveDistinctMessages) {
  for (const Tool& tool : AllTools()) {
    std::set<std::string> names;
    for (const Flag& f : tool.table.flags) {
      EXPECT_TRUE(names.insert(f.name).second) << tool.name << " " << f.name;
      EXPECT_EQ(f.name.rfind("--", 0), 0u) << f.name;
    }
    std::set<std::string> messages;
    for (const Rule& rule : tool.table.rules) {
      EXPECT_TRUE(messages.insert(rule.message).second) << rule.message;
      for (const auto* list : {&rule.when, &rule.then}) {
        for (const Condition& c : *list) {
          EXPECT_TRUE(names.count(c.flag)) << tool.name << " " << c.flag;
        }
      }
    }
  }
}

/// The smallest command line `tool` accepts.
Argv Minimal(const Tool& tool) {
  Argv argv;
  static const Rule kNone;
  EXPECT_TRUE(Complete(tool, kNone, {}, &argv).ok()) << tool.name;
  return argv;
}

TEST(SessionFlagsTest, MalformedValuesAreUsageErrors) {
  for (const Tool& tool : AllTools()) {
    const Argv base = Minimal(tool);
    const auto rejects = [&](const Argv& more) {
      Argv argv = base;
      Append(&argv, more);
      const Status s = tool.parse(argv);
      EXPECT_TRUE(s.IsInvalidArgument()) << tool.name << " " << Join(argv);
    };
    rejects({"--bogus"});
    rejects({"-k"});
    for (const Flag& f : tool.table.flags) {
      SCOPED_TRACE(tool.name + " " + f.name);
      if (f.kind == Flag::Kind::kSwitch || f.kind == Flag::Kind::kString) {
        continue;
      }
      rejects({f.name});  // dangling: the value is missing
      rejects({f.name, "7x"});
      rejects({f.name, ""});
      if (f.kind == Flag::Kind::kInt) {
        if (f.min > INT64_MIN) rejects({f.name, std::to_string(f.min - 1)});
        if (f.max < INT64_MAX) rejects({f.name, std::to_string(f.max + 1)});
        rejects({f.name, "99999999999999999999"});
      }
      if (f.kind == Flag::Kind::kProb) {
        rejects({f.name, "1.5"});
        rejects({f.name, "-0.1"});
        rejects({f.name, "nan"});
      }
      if (f.kind == Flag::Kind::kEndpoints) {
        rejects({f.name, "localhost"});
        rejects({f.name, "localhost:0"});
        rejects({f.name, "127.0.0.1:1,"});
        if (f.max == 1) rejects({f.name, "127.0.0.1:1,127.0.0.1:2"});
      }
    }
  }
}

TEST(SessionFlagsTest, ParsesIntoTheConfig) {
  SessionConfig c;
  const char* argv[] = {"hdsky_discover", "--demo",     "route",
                        "--k",            "5",          "--k",
                        "7",              "--ranking",  "lex:Stops",
                        "--cache",        "--algorithm", "sq"};
  ASSERT_TRUE(ParseFlags(DiscoverFlags(&c), 12, argv).ok());
  EXPECT_EQ(c.source.demo, "route");
  EXPECT_EQ(c.source.k, 7);  // a repeated flag keeps its last value
  EXPECT_EQ(c.source.ranking, "lex:Stops");
  EXPECT_TRUE(c.cache);
  EXPECT_EQ(c.algorithm, "sq");
  EXPECT_EQ(c.trials, 1);  // untouched defaults

  ProxyConfig p;
  const char* proxy_argv[] = {"hdsky_proxy", "--upstream", "127.0.0.1:9",
                              "--drop", "0.25"};
  ASSERT_TRUE(ParseFlags(ProxyFlags(&p), 5, proxy_argv).ok());
  ASSERT_EQ(p.upstream.size(), 1u);
  EXPECT_EQ(p.upstream[0], "127.0.0.1:9");
  EXPECT_DOUBLE_EQ(p.drop, 0.25);
}

// The vocabularies are checked at parse time, before any work is done;
// only whether a lex: attribute exists waits for the loaded schema.
TEST(SessionFlagsTest, VocabulariesAreCheckedAtParseTime) {
  const Tool discover = MakeTool(&DiscoverFlags);
  EXPECT_FALSE(
      discover.parse({"--demo", "route", "--algorithm", "bogus"}).ok());
  EXPECT_FALSE(discover.parse({"--demo", "bogus"}).ok());
  EXPECT_FALSE(discover.parse({"--demo", "route", "--ranking", "max"}).ok());
  EXPECT_TRUE(discover.parse({"--demo", "route", "--ranking", "lex:x"}).ok());
  for (const Tool& tool : {MakeTool(&ServeFlags), MakeTool(&PackFlags)}) {
    EXPECT_FALSE(tool.parse({"--demo", "route", "--ranking", "lex", "--out",
                             "x"})
                     .ok());
    EXPECT_FALSE(tool.parse({"--demo", "bogus", "--out", "x"}).ok());
  }
}

TEST(SessionFlagsTest, UsageListsEveryFlagAndTheRequiredOnes) {
  for (const Tool& tool : AllTools()) {
    const std::string usage = Usage(tool.table);
    EXPECT_EQ(usage.rfind("usage: " + tool.name, 0), 0u) << usage;
    for (const Flag& f : tool.table.flags) {
      EXPECT_NE(usage.find("  " + f.name), std::string::npos) << f.name;
    }
  }
  SessionConfig c;
  EXPECT_EQ(Lines(Usage(DiscoverFlags(&c)))[0],
            "usage: hdsky_discover (--data PATH | --demo NAME | "
            "--dataset-file FILE | --connect HOST:PORT[,...]) [options]");
  PackConfig p;
  EXPECT_EQ(Lines(Usage(PackFlags(&p)))[0],
            "usage: hdsky_pack (--data PATH | --demo NAME) --out FILE "
            "[options]");
}

}  // namespace
}  // namespace session
}  // namespace hdsky
