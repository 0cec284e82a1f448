// Unit and property tests for interface/: predicates, queries, interface
// legality enforcement, top-k semantics, ranking-policy
// domination-consistency, budgets, and the k-d index fast path.

#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "core/rq_db_sky.h"
#include "dataset/synthetic.h"
#include "interface/cache_io.h"
#include "interface/caching_database.h"
#include "interface/hidden_database.h"
#include "interface/kd_index.h"
#include "interface/ranking.h"
#include "interface/top_k_interface.h"
#include "skyline/compute.h"
#include "skyline/dominance.h"

namespace hdsky {
namespace interface {
namespace {

using data::AttributeKind;
using data::InterfaceType;
using data::Schema;
using data::Table;
using data::Tuple;
using data::TupleId;
using data::Value;

TEST(IntervalTest, DefaultUnconstrained) {
  Interval iv;
  EXPECT_FALSE(iv.constrained());
  EXPECT_TRUE(iv.Contains(0));
  EXPECT_TRUE(iv.Contains(data::kNullValue));
  EXPECT_EQ(iv.ToString(), "*");
}

TEST(IntervalTest, IntersectNarrows) {
  Interval iv;
  iv.Intersect(3, 10);
  iv.Intersect(Interval::kMin, 7);
  EXPECT_EQ(iv.lower, 3);
  EXPECT_EQ(iv.upper, 7);
  EXPECT_TRUE(iv.Contains(5));
  EXPECT_FALSE(iv.Contains(8));
  iv.Intersect(9, Interval::kMax);
  EXPECT_TRUE(iv.empty());
}

TEST(IntervalTest, NullFailsAnyConstraint) {
  Interval iv;
  iv.Intersect(3, Interval::kMax);  // lower-only constraint
  EXPECT_FALSE(iv.Contains(data::kNullValue));
}

TEST(IntervalTest, PointToString) {
  Interval iv;
  iv.Intersect(4, 4);
  EXPECT_TRUE(iv.is_point());
  EXPECT_EQ(iv.ToString(), "=4");
}

TEST(QueryTest, PredicateBuilders) {
  Query q(2);
  q.AddLessThan(0, 10);     // A0 < 10 -> upper 9
  q.AddAtLeast(1, 3);       // A1 >= 3
  EXPECT_EQ(q.interval(0).upper, 9);
  EXPECT_EQ(q.interval(1).lower, 3);
  EXPECT_TRUE(q.MatchesTuple({9, 3}));
  EXPECT_FALSE(q.MatchesTuple({10, 3}));
  EXPECT_FALSE(q.MatchesTuple({9, 2}));
}

TEST(QueryTest, ConjunctiveIntersection) {
  Query q(1);
  q.AddAtMost(0, 10).AddGreaterThan(0, 4);  // (4, 10]
  EXPECT_FALSE(q.MatchesTuple({4}));
  EXPECT_TRUE(q.MatchesTuple({5}));
  EXPECT_TRUE(q.MatchesTuple({10}));
  q.AddEquals(0, 7);
  EXPECT_TRUE(q.interval(0).is_point());
  q.AddEquals(0, 9);  // contradictory equality
  EXPECT_TRUE(q.HasEmptyInterval());
}

Table MakeMixedTable() {
  // price (RQ), memory (SQ), stops (PQ), carrier (filtering)
  auto schema = Schema::Create(
      {{"price", AttributeKind::kRanking, InterfaceType::kRQ, 0, 1000},
       {"memory", AttributeKind::kRanking, InterfaceType::kSQ, 0, 64},
       {"stops", AttributeKind::kRanking, InterfaceType::kPQ, 0, 2},
       {"carrier", AttributeKind::kFiltering,
        InterfaceType::kFilterEquality, 0, 3}});
  Table t(std::move(schema).value());
  EXPECT_TRUE(t.Append({100, 8, 0, 1}).ok());
  EXPECT_TRUE(t.Append({200, 4, 1, 2}).ok());
  EXPECT_TRUE(t.Append({300, 2, 2, 1}).ok());
  EXPECT_TRUE(t.Append({150, 16, 0, 0}).ok());
  EXPECT_TRUE(t.Append({50, 32, 2, 3}).ok());
  return t;
}

TEST(TopKInterfaceTest, CreateValidation) {
  const Table t = MakeMixedTable();
  EXPECT_FALSE(
      TopKInterface::Create(nullptr, MakeSumRanking(), {}).ok());
  EXPECT_FALSE(TopKInterface::Create(&t, nullptr, {}).ok());
  TopKOptions bad;
  bad.k = 0;
  EXPECT_FALSE(TopKInterface::Create(&t, MakeSumRanking(), bad).ok());
}

TEST(TopKInterfaceTest, LegalityEnforcement) {
  const Table t = MakeMixedTable();
  auto iface =
      std::move(TopKInterface::Create(&t, MakeSumRanking(), {})).value();

  // RQ attribute: anything goes.
  Query rq(4);
  rq.AddAtLeast(0, 100).AddAtMost(0, 300);
  EXPECT_TRUE(iface->ValidateQuery(rq).ok());

  // SQ attribute: upper bound ok, equality ok, lower bound rejected.
  Query sq_upper(4);
  sq_upper.AddLessThan(1, 10);
  EXPECT_TRUE(iface->ValidateQuery(sq_upper).ok());
  Query sq_eq(4);
  sq_eq.AddEquals(1, 8);
  EXPECT_TRUE(iface->ValidateQuery(sq_eq).ok());
  Query sq_lower(4);
  sq_lower.AddAtLeast(1, 4);
  EXPECT_TRUE(iface->ValidateQuery(sq_lower).IsUnsupported());

  // PQ attribute: only points.
  Query pq_eq(4);
  pq_eq.AddEquals(2, 1);
  EXPECT_TRUE(iface->ValidateQuery(pq_eq).ok());
  Query pq_range(4);
  pq_range.AddLessThan(2, 2);
  EXPECT_TRUE(iface->ValidateQuery(pq_range).IsUnsupported());

  // Filtering attribute: only equality.
  Query f_eq(4);
  f_eq.AddEquals(3, 1);
  EXPECT_TRUE(iface->ValidateQuery(f_eq).ok());
  Query f_range(4);
  f_range.AddAtMost(3, 1);
  EXPECT_TRUE(iface->ValidateQuery(f_range).IsUnsupported());

  // Arity mismatch.
  EXPECT_TRUE(iface->ValidateQuery(Query(2)).IsInvalidArgument());

  // Rejected queries are not charged.
  auto r = iface->Execute(sq_lower);
  EXPECT_TRUE(r.status().IsUnsupported());
  EXPECT_EQ(iface->stats().queries_issued, 0);
  EXPECT_EQ(iface->stats().rejected_queries, 1);
}

TEST(TopKInterfaceTest, TopKOrderAndOverflow) {
  const Table t = MakeMixedTable();
  TopKOptions opts;
  opts.k = 2;
  // Rank by price only (lexicographic with priority {price}).
  auto iface = std::move(TopKInterface::Create(
                             &t, MakeLexicographicRanking({0}), opts))
                   .value();
  auto r = iface->Execute(Query(4));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2);
  EXPECT_TRUE(r->overflow);
  EXPECT_EQ(r->ids[0], 4);  // price 50
  EXPECT_EQ(r->ids[1], 0);  // price 100
  EXPECT_EQ(r->tuples[0][0], 50);

  // Narrow query that underflows.
  Query q(4);
  q.AddAtMost(0, 120);
  auto r2 = iface->Execute(q);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->size(), 2);
  EXPECT_FALSE(r2->overflow);  // exactly 2 matches

  Query q3(4);
  q3.AddAtMost(0, 60);
  auto r3 = iface->Execute(q3);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->size(), 1);
  EXPECT_FALSE(r3->overflow);

  Query q4(4);
  q4.AddAtMost(0, 10);
  auto r4 = iface->Execute(q4);
  ASSERT_TRUE(r4.ok());
  EXPECT_TRUE(r4->empty());
  EXPECT_EQ(iface->stats().empty_queries, 1);
  EXPECT_EQ(iface->stats().queries_issued, 4);
}

TEST(TopKInterfaceTest, FilteringPredicateWorks) {
  const Table t = MakeMixedTable();
  auto iface =
      std::move(TopKInterface::Create(&t, MakeSumRanking(), {})).value();
  Query q(4);
  q.AddEquals(3, 1);  // carrier = 1 -> rows 0 and 2
  auto r = iface->Execute(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1);  // k = 1
  EXPECT_TRUE(r->overflow);
  EXPECT_TRUE(r->ids[0] == 0 || r->ids[0] == 2);
}

TEST(TopKInterfaceTest, BudgetExhaustion) {
  const Table t = MakeMixedTable();
  TopKOptions opts;
  opts.query_budget = 2;
  auto iface =
      std::move(TopKInterface::Create(&t, MakeSumRanking(), opts)).value();
  EXPECT_EQ(iface->RemainingBudget(), 2);
  EXPECT_TRUE(iface->Execute(Query(4)).ok());
  EXPECT_TRUE(iface->Execute(Query(4)).ok());
  EXPECT_EQ(iface->RemainingBudget(), 0);
  EXPECT_TRUE(iface->Execute(Query(4)).status().IsResourceExhausted());
  iface->SetBudget(1);
  EXPECT_TRUE(iface->Execute(Query(4)).ok());
  EXPECT_TRUE(iface->Execute(Query(4)).status().IsResourceExhausted());
  iface->SetBudget(0);  // unlimited
  EXPECT_EQ(iface->RemainingBudget(), -1);
  EXPECT_TRUE(iface->Execute(Query(4)).ok());
}

TEST(TopKInterfaceTest, DomainImpossibleQueriesAreCountedButEmpty) {
  const Table t = MakeMixedTable();
  auto iface =
      std::move(TopKInterface::Create(&t, MakeSumRanking(), {})).value();
  Query q(4);
  q.AddLessThan(0, 0);  // price < 0: below the domain
  auto r = iface->Execute(q);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  EXPECT_EQ(iface->stats().queries_issued, 1);
}

TEST(CachingDatabaseTest, ServesRepeatsFree) {
  const Table t = MakeMixedTable();
  TopKOptions opts;
  opts.k = 2;
  auto backend =
      std::move(TopKInterface::Create(&t, MakeSumRanking(), opts)).value();
  CachingDatabase cached(backend.get());
  Query q(4);
  q.AddAtMost(0, 200);
  auto first = cached.Execute(q);
  ASSERT_TRUE(first.ok());
  auto second = cached.Execute(q);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->ids, second->ids);
  EXPECT_EQ(first->overflow, second->overflow);
  EXPECT_EQ(backend->stats().queries_issued, 1);
  EXPECT_EQ(cached.hits(), 1);
  EXPECT_EQ(cached.misses(), 1);
}

TEST(CachingDatabaseTest, HitsIgnoreBackendBudget) {
  const Table t = MakeMixedTable();
  TopKOptions opts;
  opts.query_budget = 1;
  auto backend =
      std::move(TopKInterface::Create(&t, MakeSumRanking(), opts)).value();
  CachingDatabase cached(backend.get());
  ASSERT_TRUE(cached.Execute(Query(4)).ok());
  // Budget is gone, but the identical query replays from the cache...
  EXPECT_TRUE(cached.Execute(Query(4)).ok());
  // ...while a new query is refused by the backend.
  Query q(4);
  q.AddAtMost(0, 100);
  EXPECT_TRUE(cached.Execute(q).status().IsResourceExhausted());
}

TEST(CachingDatabaseTest, AccountsBackendErrorsSeparately) {
  // Audit of hit/miss accounting under error returns: a failed backend
  // fetch must count as neither a hit nor a miss (it is an error), must
  // cache nothing, and must leave a later retry able to reach the
  // backend. Invariant: hits + misses + errors == accepted Execute calls.
  const Table t = MakeMixedTable();
  TopKOptions opts;
  opts.query_budget = 1;
  auto backend =
      std::move(TopKInterface::Create(&t, MakeSumRanking(), opts)).value();
  CachingDatabase cached(backend.get());

  Query q(4);
  q.AddAtMost(0, 200);
  ASSERT_TRUE(cached.Execute(q).ok());  // consumes the whole budget
  EXPECT_EQ(cached.misses(), 1);

  Query q2(4);
  q2.AddAtMost(0, 100);
  // Three failed fetches: errors tally, hit/miss ratios stay honest,
  // and the failures are not cached as answers.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(cached.Execute(q2).status().IsResourceExhausted());
  }
  EXPECT_EQ(cached.hits(), 0);
  EXPECT_EQ(cached.misses(), 1);
  EXPECT_EQ(cached.errors(), 3);
  EXPECT_EQ(cached.size(), 1);

  // A new budget window: the retry is a genuine miss that reaches the
  // backend (nothing stale was cached by the failures).
  backend->SetBudget(1);
  ASSERT_TRUE(cached.Execute(q2).ok());
  EXPECT_EQ(cached.misses(), 2);
  EXPECT_EQ(cached.errors(), 3);
  EXPECT_EQ(cached.size(), 2);

  // Rejected (illegal) queries fail validation before the cache and
  // count nowhere.
  Query bad(4);
  bad.AddAtLeast(1, 2);  // lower bound on an SQ attribute
  EXPECT_TRUE(cached.Execute(bad).status().IsUnsupported());
  EXPECT_EQ(cached.hits() + cached.misses() + cached.errors(), 5);
}

TEST(CachingDatabaseTest, MakesDiscoveryResumable) {
  // Re-running a deterministic discovery across budget windows costs, in
  // total, exactly the one-shot cost: the cached prefix replays free.
  dataset::SyntheticOptions gen;
  gen.num_tuples = 600;
  gen.num_attributes = 3;
  gen.domain_size = 80;
  gen.iface = data::InterfaceType::kRQ;
  gen.seed = 98;
  const Table t = std::move(dataset::GenerateSynthetic(gen)).value();

  // One-shot reference.
  auto ref_iface =
      std::move(TopKInterface::Create(&t, MakeSumRanking(), {})).value();
  auto ref = hdsky::core::RqDbSky(ref_iface.get());
  ASSERT_TRUE(ref.ok());

  auto backend =
      std::move(TopKInterface::Create(&t, MakeSumRanking(), {})).value();
  CachingDatabase cached(backend.get());
  const int64_t window = std::max<int64_t>(ref->query_cost / 5, 1);
  bool complete = false;
  for (int session = 0; session < 10 && !complete; ++session) {
    backend->SetBudget(window);
    auto partial = hdsky::core::RqDbSky(&cached);
    ASSERT_TRUE(partial.ok()) << partial.status();
    complete = partial->complete;
    if (complete) {
      EXPECT_EQ(partial->skyline_ids, ref->skyline_ids);
    }
  }
  EXPECT_TRUE(complete);
  // <= because the cache also collapses intra-run duplicate queries.
  EXPECT_LE(backend->stats().queries_issued, ref->query_cost);
}

TEST(CachingDatabaseTest, PersistsAcrossProcesses) {
  // Session 1 discovers under a budget and saves its cache; session 2
  // (a fresh decorator, as after a process restart) loads it, replays
  // for free, and finishes.
  dataset::SyntheticOptions gen;
  gen.num_tuples = 400;
  gen.num_attributes = 3;
  gen.domain_size = 60;
  gen.iface = data::InterfaceType::kRQ;
  gen.seed = 96;
  const Table t = std::move(dataset::GenerateSynthetic(gen)).value();
  const std::string path = ::testing::TempDir() + "/hdsky_cache.txt";

  auto ref_iface =
      std::move(TopKInterface::Create(&t, MakeSumRanking(), {})).value();
  auto ref = hdsky::core::RqDbSky(ref_iface.get());
  ASSERT_TRUE(ref.ok());
  const int64_t half = std::max<int64_t>(ref->query_cost / 2, 1);

  int64_t first_session_queries = 0;
  {
    TopKOptions opts;
    opts.query_budget = half;
    auto backend =
        std::move(TopKInterface::Create(&t, MakeSumRanking(), opts))
            .value();
    CachingDatabase cached(backend.get());
    auto partial = hdsky::core::RqDbSky(&cached);
    ASSERT_TRUE(partial.ok());
    EXPECT_FALSE(partial->complete);
    first_session_queries = backend->stats().queries_issued;
    ASSERT_TRUE(cached.SaveToFile(path).ok());
  }
  {
    auto backend =
        std::move(TopKInterface::Create(&t, MakeSumRanking(), {})).value();
    CachingDatabase cached(backend.get());
    ASSERT_TRUE(cached.LoadFromFile(path).ok());
    EXPECT_EQ(cached.size(), first_session_queries);
    auto final = hdsky::core::RqDbSky(&cached);
    ASSERT_TRUE(final.ok());
    EXPECT_TRUE(final->complete);
    EXPECT_EQ(final->skyline_ids, ref->skyline_ids);
    // Only the remainder hits the backend — possibly less, because the
    // cache also makes intra-run duplicate queries free.
    EXPECT_LE(backend->stats().queries_issued,
              ref->query_cost - first_session_queries);
    EXPECT_GT(backend->stats().queries_issued, 0);
  }
  std::remove(path.c_str());
}

TEST(CachingDatabaseTest, LoadRejectsGarbage) {
  const Table t = MakeMixedTable();
  auto backend =
      std::move(TopKInterface::Create(&t, MakeSumRanking(), {})).value();
  CachingDatabase cached(backend.get());
  std::istringstream garbage("not-a-cache 3");
  EXPECT_TRUE(cached.Load(garbage).IsIOError());
  EXPECT_TRUE(cached.LoadFromFile("/nonexistent/cache").IsIOError());
}

// --- hdsky-cache-v1 stream hardening -----------------------------------
//
// A cache file can be truncated by a crashed process or corrupted in
// transit. Load must reject such streams with a clear Status and leave
// the decorator exactly as it was — never a partially-applied cache.

/// A small populated cache, saved to text, for mutation-based tests.
std::string SavedCacheText(const Table& t) {
  auto backend =
      std::move(TopKInterface::Create(&t, MakeSumRanking(), {})).value();
  CachingDatabase cached(backend.get());
  for (int i = 0; i < 4; ++i) {
    Query q(t.schema().num_attributes());
    q.AddAtMost(0, 100 + 50 * i);
    EXPECT_TRUE(cached.Execute(q).ok());
  }
  std::ostringstream out;
  EXPECT_TRUE(cached.Save(out).ok());
  return out.str();
}

/// Loading `text` must fail as IOError and leave `cached` untouched.
void ExpectAtomicRejection(const Table& t, const std::string& text,
                           const std::string& label) {
  auto backend =
      std::move(TopKInterface::Create(&t, MakeSumRanking(), {})).value();
  CachingDatabase cached(backend.get());
  // Pre-populate one entry so "unchanged" is observable.
  Query q(t.schema().num_attributes());
  q.AddAtMost(0, 123);
  ASSERT_TRUE(cached.Execute(q).ok());
  const int64_t size_before = cached.size();

  std::istringstream in(text);
  const common::Status s = cached.Load(in);
  EXPECT_TRUE(s.IsIOError()) << label << ": " << s.ToString();
  EXPECT_EQ(cached.size(), size_before) << label;
  // The pre-existing entry still replays for free.
  ASSERT_TRUE(cached.Execute(q).ok());
  EXPECT_EQ(cached.hits(), 1) << label;
}

TEST(CacheIoTest, RoundTripsThroughText) {
  const Table t = MakeMixedTable();
  const std::string text = SavedCacheText(t);
  std::istringstream in(text);
  const int k = TopKOptions().k;
  auto loaded = cache_io::ReadAll(in, t.schema().num_attributes(), k);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 4u);
  // Re-serializing the loaded map yields a stream that loads again to
  // the same entry set (order in the map is free to differ).
  std::ostringstream out;
  cache_io::WriteHeader(out, loaded->size());
  for (const auto& [key, result] : *loaded) {
    cache_io::WriteEntry(out, key, result);
  }
  ASSERT_TRUE(cache_io::FinishWrite(out).ok());
  std::istringstream in2(out.str());
  auto reloaded = cache_io::ReadAll(in2, t.schema().num_attributes(), k);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->size(), loaded->size());
  for (const auto& [key, result] : *loaded) {
    auto it = reloaded->find(key);
    ASSERT_NE(it, reloaded->end());
    EXPECT_EQ(it->second.ids, result.ids);
    EXPECT_EQ(it->second.overflow, result.overflow);
  }
}

TEST(CacheIoTest, RejectsTruncatedStreamsAtomically) {
  const Table t = MakeMixedTable();
  const std::string text = SavedCacheText(t);
  // Dropping whole trailing tokens always leaves the stream short of its
  // declared entries/values. (A byte-level cut inside the *last* number
  // is undetectable in a text format — "12" truncated to "1" still
  // parses — which is exactly why the wire protocol is length-prefixed
  // binary instead.)
  std::vector<std::string> tokens;
  {
    std::istringstream in(text);
    std::string tok;
    while (in >> tok) tokens.push_back(tok);
  }
  ASSERT_GT(tokens.size(), 8u);
  for (size_t drop : {size_t{1}, size_t{3}, tokens.size() / 2,
                      tokens.size() - 2}) {
    std::string cut;
    for (size_t i = 0; i + drop < tokens.size(); ++i) {
      cut += tokens[i];
      cut += ' ';
    }
    ExpectAtomicRejection(t, cut,
                          "dropped last " + std::to_string(drop) +
                              " tokens");
  }
  // A cut inside the first entry's hex signature is caught too: the
  // prefix is either odd-length hex or the wrong width for the schema.
  const size_t first_entry = text.find('\n') + 1;
  ExpectAtomicRejection(t, text.substr(0, first_entry + 11),
                        "cut mid-signature");
}

TEST(CacheIoTest, RejectsCorruptedFields) {
  const Table t = MakeMixedTable();
  const std::string text = SavedCacheText(t);
  const int width = t.schema().num_attributes();

  // Count claims more entries than the stream holds.
  {
    std::string s = text;
    const size_t pos = s.find(" 4\n");
    ASSERT_NE(pos, std::string::npos);
    s.replace(pos, 3, " 9\n");
    ExpectAtomicRejection(t, s, "count too high");
  }
  // Trailing garbage after the declared entries.
  ExpectAtomicRejection(t, text + "stray trailing entry\n",
                        "trailing garbage");
  // Duplicate keys: entry list repeated with the count doubled.
  {
    const size_t body = text.find('\n') + 1;
    std::string s = "hdsky-cache-v1 8\n" + text.substr(body) +
                    text.substr(body);
    ExpectAtomicRejection(t, s, "duplicate keys");
  }
  // Signature length disagrees with the schema width.
  {
    std::istringstream in(text);
    EXPECT_TRUE(cache_io::ReadAll(in, width + 1, TopKOptions().k)
                    .status()
                    .IsIOError());
  }
  // Non-hex signature, odd-length signature.
  ExpectAtomicRejection(
      t, "hdsky-cache-v1 1\nzz 0 0\n", "non-hex signature");
  ExpectAtomicRejection(
      t, "hdsky-cache-v1 1\nabc 0 0\n", "odd-length signature");
  // Overflow flag outside {0, 1}.
  {
    std::string s = text;
    const size_t nl = s.find('\n');
    ASSERT_NE(nl, std::string::npos);
    const size_t sp = s.find(' ', nl);  // after the first signature
    ASSERT_NE(sp, std::string::npos);
    s.replace(sp + 1, 1, "7");
    ExpectAtomicRejection(t, s, "bad overflow flag");
  }
  // A huge declared tuple count must fail fast (truncated read), not
  // attempt a matching allocation first.
  {
    const std::string sig(static_cast<size_t>(width) * 2 *
                              sizeof(data::Value) * 2,
                          'a');  // hex chars = 2x bytes
    ExpectAtomicRejection(
        t, "hdsky-cache-v1 1\n" + sig + " 0 123456789012\n",
        "tuple-count memory bomb");
    // Negative tuple id.
    ExpectAtomicRejection(
        t, "hdsky-cache-v1 1\n" + sig + " 0 1 -5 1 2 3 4\n",
        "negative tuple id");
    // More tuples than the interface's k (1 here): never a top-k answer.
    ExpectAtomicRejection(
        t, "hdsky-cache-v1 1\n" + sig + " 0 2 1 1 2 3 4 2 1 2 3 4\n",
        "more than k tuples");
  }
}

TEST(CallbackDatabaseTest, AdaptsExternalBackends) {
  // A CallbackDatabase stands in for a real website's HTTP client; here
  // the "site" is a simulator behind the lambda. Discovery through the
  // adapter must equal discovery against the simulator directly.
  dataset::SyntheticOptions gen;
  gen.num_tuples = 400;
  gen.num_attributes = 3;
  gen.domain_size = 50;
  gen.iface = data::InterfaceType::kRQ;
  gen.seed = 97;
  const Table t = std::move(dataset::GenerateSynthetic(gen)).value();

  auto backend =
      std::move(TopKInterface::Create(&t, MakeSumRanking(), {})).value();
  CallbackDatabase adapter(
      t.schema(), backend->k(),
      [&](const Query& q) { return backend->Execute(q); });

  auto via_adapter = hdsky::core::RqDbSky(&adapter);
  ASSERT_TRUE(via_adapter.ok()) << via_adapter.status();

  auto direct_iface =
      std::move(TopKInterface::Create(&t, MakeSumRanking(), {})).value();
  auto direct = hdsky::core::RqDbSky(direct_iface.get());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(via_adapter->skyline_ids, direct->skyline_ids);
  EXPECT_EQ(via_adapter->query_cost, direct->query_cost);
}

TEST(CallbackDatabaseTest, ValidatesTaxonomyBeforeCalling) {
  const Table t = MakeMixedTable();
  int calls = 0;
  CallbackDatabase adapter(t.schema(), 1, [&](const Query&) {
    ++calls;
    return common::Result<QueryResult>(QueryResult{});
  });
  Query illegal(4);
  illegal.AddAtLeast(1, 4);  // lower bound on the SQ attribute
  EXPECT_TRUE(adapter.Execute(illegal).status().IsUnsupported());
  EXPECT_EQ(calls, 0);  // rejected before reaching the backend
  EXPECT_TRUE(adapter.Execute(Query(4)).ok());
  EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------------------
// Ranking policies: domination-consistency is THE requirement (§2.1).

struct RankingCase {
  std::string name;
  std::function<std::shared_ptr<RankingPolicy>()> make;
};

class RankingConsistency
    : public ::testing::TestWithParam<RankingCase> {};

TEST_P(RankingConsistency, TopKAnswersAreDominationConsistent) {
  dataset::SyntheticOptions gen;
  gen.num_tuples = 400;
  gen.num_attributes = 3;
  gen.domain_size = 12;  // small domain: plenty of dominance pairs
  gen.seed = 99;
  const Table t = std::move(dataset::GenerateSynthetic(gen)).value();
  TopKOptions opts;
  opts.k = 25;
  auto iface =
      std::move(TopKInterface::Create(&t, GetParam().make(), opts))
          .value();
  const auto& ranking = t.schema().ranking_attributes();

  common::Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    Query q(t.schema().num_attributes());
    // Random conjunctive box.
    for (int a = 0; a < 3; ++a) {
      if (rng.Bernoulli(0.5)) {
        q.AddAtMost(a, rng.UniformInt(3, 11));
      }
    }
    auto r = iface->Execute(q);
    ASSERT_TRUE(r.ok());
    // (1) Within the answer, no later tuple dominates an earlier one.
    for (int i = 0; i < r->size(); ++i) {
      for (int j = i + 1; j < r->size(); ++j) {
        EXPECT_FALSE(skyline::Dominates(r->tuples[static_cast<size_t>(j)],
                                        r->tuples[static_cast<size_t>(i)],
                                        ranking))
            << GetParam().name << " trial " << trial;
      }
    }
    // (2) No unreturned matching tuple dominates a returned one.
    std::set<TupleId> returned(r->ids.begin(), r->ids.end());
    for (TupleId row = 0; row < t.num_rows(); ++row) {
      if (returned.count(row) || !q.MatchesRow(t, row)) continue;
      for (int i = 0; i < r->size(); ++i) {
        EXPECT_FALSE(skyline::RowDominates(
            t, row, r->ids[static_cast<size_t>(i)], ranking))
            << GetParam().name << " trial " << trial;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, RankingConsistency,
    ::testing::Values(
        RankingCase{"sum", [] { return MakeSumRanking(); }},
        RankingCase{"weighted",
                    [] {
                      return MakeLinearRanking({0.2, 1.5, 3.0});
                    }},
        RankingCase{"lexicographic",
                    [] { return MakeLexicographicRanking({1, 0}); }},
        RankingCase{"layered_random",
                    [] { return MakeLayeredRandomRanking(77); }},
        RankingCase{"adversarial",
                    [] { return MakeAdversarialRanking(78); }}),
    [](const ::testing::TestParamInfo<RankingCase>& info) {
      return info.param.name;
    });

TEST(RankingTest, LinearRejectsNonPositiveWeights) {
  const Table t = MakeMixedTable();
  EXPECT_FALSE(
      TopKInterface::Create(&t, MakeLinearRanking({1.0, 0.0, 1.0}), {})
          .ok());
  EXPECT_FALSE(
      TopKInterface::Create(&t, MakeLinearRanking({1.0, -2.0, 1.0}), {})
          .ok());
}

TEST(RankingTest, LinearRejectsWrongArity) {
  const Table t = MakeMixedTable();  // 3 ranking attributes
  EXPECT_FALSE(
      TopKInterface::Create(&t, MakeLinearRanking({1.0, 1.0}), {}).ok());
}

TEST(RankingTest, LexicographicRejectsNonRankingPriority) {
  const Table t = MakeMixedTable();
  EXPECT_FALSE(
      TopKInterface::Create(&t, MakeLexicographicRanking({3}), {}).ok());
}

TEST(RankingTest, LayeredRandomIsDeterministicPerSeed) {
  dataset::SyntheticOptions gen;
  gen.num_tuples = 100;
  gen.num_attributes = 2;
  gen.domain_size = 20;
  gen.seed = 1;
  const Table t = std::move(dataset::GenerateSynthetic(gen)).value();
  auto a = std::move(TopKInterface::Create(
                         &t, MakeLayeredRandomRanking(5), {}))
               .value();
  auto b = std::move(TopKInterface::Create(
                         &t, MakeLayeredRandomRanking(5), {}))
               .value();
  for (int i = 0; i < 5; ++i) {
    auto ra = a->Execute(Query(2));
    auto rb = b->Execute(Query(2));
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(ra->ids, rb->ids);
  }
}

TEST(RankingTest, LayeredRandomTop1IsUniformOverMatchingSkyline) {
  // The §3.2 average-case model: over seeds, the top-1 of SELECT *
  // should be (approximately) uniform over the skyline.
  dataset::SyntheticOptions gen;
  gen.num_tuples = 60;
  gen.num_attributes = 2;
  gen.domain_size = 15;
  gen.seed = 4;
  const Table t = std::move(dataset::GenerateSynthetic(gen)).value();
  const auto sky = skyline::SkylineBNL(t);
  ASSERT_GE(sky.size(), 2u);
  std::map<TupleId, int> hits;
  const int trials = 400;
  for (int s = 0; s < trials; ++s) {
    auto iface = std::move(TopKInterface::Create(
                               &t, MakeLayeredRandomRanking(1000 + s), {}))
                     .value();
    auto r = iface->Execute(Query(2));
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->size(), 1);
    ++hits[r->ids[0]];
  }
  // Every top-1 is a skyline tuple, and each skyline tuple is hit.
  std::set<TupleId> sky_set(sky.begin(), sky.end());
  for (const auto& [id, count] : hits) {
    EXPECT_TRUE(sky_set.count(id)) << id;
  }
  EXPECT_EQ(hits.size(), sky.size());
}

// ---------------------------------------------------------------------
// KdIndex

TEST(KdIndexTest, MatchesBruteForceOnRandomQueries) {
  dataset::SyntheticOptions gen;
  gen.num_tuples = 3000;
  gen.num_attributes = 4;
  gen.domain_size = 64;
  gen.seed = 12;
  const Table t = std::move(dataset::GenerateSynthetic(gen)).value();
  std::vector<int64_t> rank(static_cast<size_t>(t.num_rows()));
  std::iota(rank.begin(), rank.end(), 0);
  KdIndex index(&t, rank);

  common::Rng rng(13);
  for (int trial = 0; trial < 40; ++trial) {
    Query q(4);
    for (int a = 0; a < 4; ++a) {
      const int mode = static_cast<int>(rng.UniformInt(0, 3));
      if (mode == 1) {
        q.AddAtMost(a, rng.UniformInt(0, 63));
      } else if (mode == 2) {
        q.AddAtLeast(a, rng.UniformInt(0, 63));
      } else if (mode == 3) {
        q.AddEquals(a, rng.UniformInt(0, 63));
      }
    }
    std::vector<TupleId> got;
    ASSERT_TRUE(
        index.RetrieveMatches(q, t.num_rows() + 1, &got));
    std::sort(got.begin(), got.end());
    std::vector<TupleId> expected;
    for (TupleId r = 0; r < t.num_rows(); ++r) {
      if (q.MatchesRow(t, r)) expected.push_back(r);
    }
    EXPECT_EQ(got, expected) << "trial " << trial;
  }
}

TEST(KdIndexTest, AbortsAboveThreshold) {
  dataset::SyntheticOptions gen;
  gen.num_tuples = 2000;
  gen.num_attributes = 2;
  gen.domain_size = 100;
  gen.seed = 14;
  const Table t = std::move(dataset::GenerateSynthetic(gen)).value();
  std::vector<int64_t> rank(static_cast<size_t>(t.num_rows()));
  std::iota(rank.begin(), rank.end(), 0);
  KdIndex index(&t, rank);
  std::vector<TupleId> got;
  EXPECT_FALSE(index.RetrieveMatches(Query(2), 10, &got));
  EXPECT_GT(got.size(), 10u);
}

TEST(KdIndexTest, IndexedInterfaceAgreesWithScan) {
  // Above the indexing threshold the interface must answer identically.
  dataset::SyntheticOptions gen;
  gen.num_tuples = 6000;  // >= threshold, index built
  gen.num_attributes = 3;
  gen.domain_size = 40;
  gen.seed = 15;
  const Table t = std::move(dataset::GenerateSynthetic(gen)).value();
  TopKOptions opts;
  opts.k = 7;
  auto iface =
      std::move(TopKInterface::Create(&t, MakeSumRanking(), opts)).value();
  common::Rng rng(16);
  for (int trial = 0; trial < 30; ++trial) {
    Query q(3);
    for (int a = 0; a < 3; ++a) {
      if (rng.Bernoulli(0.6)) q.AddAtMost(a, rng.UniformInt(0, 12));
    }
    auto r = iface->Execute(q);
    ASSERT_TRUE(r.ok());
    // Brute-force reference.
    std::vector<TupleId> matches;
    for (TupleId row = 0; row < t.num_rows(); ++row) {
      if (q.MatchesRow(t, row)) matches.push_back(row);
    }
    LinearRanking ref;
    ASSERT_TRUE(ref.Bind(&t, t.schema().ranking_attributes()).ok());
    const auto expected = ref.SelectTopK(matches, opts.k);
    EXPECT_EQ(r->ids, expected) << "trial " << trial;
    EXPECT_EQ(r->overflow,
              static_cast<int>(matches.size()) > opts.k);
  }
}

}  // namespace
}  // namespace interface
}  // namespace hdsky
