// Robustness suite: NULL values through the whole stack, degenerate
// dimensionalities, and other edges the main suites do not reach.
//
// NULL semantics (data/value.h): NULL ranks worst and a constrained
// interval never matches it. A tuple with NULL on attribute Ai can still
// be on the skyline (if it excels elsewhere) and remains discoverable:
// the completeness argument of Theorem 2 only ever follows a branch on
// an attribute where the tuple BEATS the pivot — never the NULL one.

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "core/rq_db_sky.h"
#include "core/sq_db_sky.h"
#include "dataset/synthetic.h"
#include "tests/test_util.h"

namespace hdsky {
namespace core {
namespace {

using data::AttributeKind;
using data::InterfaceType;
using data::Schema;
using data::Table;
using data::Tuple;
using data::TupleId;
using data::Value;
using interface::MakeSumRanking;
using interface::Query;
using testutil::ExpectExactSkyline;
using testutil::MakeInterface;

Table MakeNullySynthetic(int64_t n, int m, Value domain, double null_rate,
                         uint64_t seed, InterfaceType iface) {
  std::vector<data::AttributeSpec> attrs;
  for (int i = 0; i < m; ++i) {
    attrs.push_back({"N" + std::to_string(i), AttributeKind::kRanking,
                     iface, 0, domain});
  }
  Table t(std::move(Schema::Create(std::move(attrs))).value());
  common::Rng rng(seed);
  Tuple tuple(static_cast<size_t>(m));
  for (int64_t row = 0; row < n; ++row) {
    for (int a = 0; a < m; ++a) {
      tuple[static_cast<size_t>(a)] = rng.Bernoulli(null_rate)
                                          ? data::kNullValue
                                          : rng.UniformInt(0, domain);
    }
    EXPECT_TRUE(t.Append(tuple).ok());
  }
  return t;
}

TEST(NullValueTest, NullTupleCanBeSkylineAndIsDiscovered) {
  // (NULL, 0) excels on attribute 1; nothing dominates it unless some
  // tuple has A1 <= 0 too.
  auto schema = std::move(Schema::Create(
      {{"a", AttributeKind::kRanking, InterfaceType::kRQ, 0, 100},
       {"b", AttributeKind::kRanking, InterfaceType::kRQ, 0, 100}})).value();
  Table t(std::move(schema));
  ASSERT_TRUE(t.Append({data::kNullValue, 0}).ok());
  ASSERT_TRUE(t.Append({10, 50}).ok());
  ASSERT_TRUE(t.Append({20, 60}).ok());  // dominated
  auto iface = MakeInterface(&t, MakeSumRanking(), 1);
  auto result = RqDbSky(iface.get());
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectExactSkyline(*result, t);
  ASSERT_EQ(result->skyline.size(), 2u);
  // The NULL tuple is among them.
  bool found_null = false;
  for (const Tuple& s : result->skyline) {
    if (s[0] == data::kNullValue) found_null = true;
  }
  EXPECT_TRUE(found_null);
}

struct NullParam {
  int m;
  double rate;
  int k;
  uint64_t seed;
};

class NullSweep : public ::testing::TestWithParam<NullParam> {};

TEST_P(NullSweep, DiscoveryUnderNulls) {
  const NullParam p = GetParam();
  const Table t = MakeNullySynthetic(400, p.m, 40, p.rate, p.seed,
                                     InterfaceType::kRQ);
  // SQ-DB-SKY stays complete under NULLs: its coverage argument only
  // ever follows a branch on an attribute where the tuple beats the
  // pivot — never the NULL one.
  auto iface2 = MakeInterface(&t, MakeSumRanking(), p.k);
  auto sq = SqDbSky(iface2.get());
  ASSERT_TRUE(sq.ok()) << sq.status();
  ExpectExactSkyline(*sq, t);

  // RQ-DB-SKY's R(q) rewrite excludes NULLs from its ">=" bounds (a
  // real site's filters skip unlisted-value items), so it may miss
  // NULL-valued skyline tuples — but must stay sound and find every
  // NULL-free one (see rq_db_sky.h).
  auto iface = MakeInterface(&t, MakeSumRanking(), p.k);
  auto rq = RqDbSky(iface.get());
  ASSERT_TRUE(rq.ok()) << rq.status();
  testutil::ExpectSoundSubset(*rq, t);
  const auto discovered = testutil::DiscoveredValues(*rq, t.schema());
  for (const Tuple& v : skyline::DistinctSkylineValues(t)) {
    bool has_null = false;
    for (Value x : v) has_null = has_null || x == data::kNullValue;
    if (!has_null) {
      EXPECT_TRUE(
          std::binary_search(discovered.begin(), discovered.end(), v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NullSweep,
    ::testing::Values(NullParam{2, 0.05, 1, 700}, NullParam{3, 0.1, 1, 701},
                      NullParam{3, 0.3, 5, 702}, NullParam{4, 0.2, 3, 703},
                      NullParam{2, 0.9, 1, 704}),
    [](const ::testing::TestParamInfo<NullParam>& info) {
      return "m" + std::to_string(info.param.m) + "_k" +
             std::to_string(info.param.k) + "_seed" +
             std::to_string(info.param.seed);
    });

TEST(NullValueTest, KdIndexAgreesWithBruteForceUnderNulls) {
  const Table t = MakeNullySynthetic(3000, 3, 64, 0.15, 705,
                                     InterfaceType::kRQ);
  const std::vector<TupleId> order = testutil::SumOrder(t);
  for (const int k : {4, 3000}) {
    auto iface = MakeInterface(&t, MakeSumRanking(), k);
    common::Rng rng(706);
    for (int trial = 0; trial < 30; ++trial) {
      Query q(3);
      for (int a = 0; a < 3; ++a) {
        const int64_t mode = rng.UniformInt(0, 2);
        if (mode == 1) q.AddAtMost(a, rng.UniformInt(0, 63));
        if (mode == 2) q.AddAtLeast(a, rng.UniformInt(0, 63));
      }
      auto got = iface->Execute(q);
      ASSERT_TRUE(got.ok()) << got.status();
      const interface::QueryResult want =
          testutil::NaiveTopK(t, order, q, k);
      EXPECT_EQ(got->ids, want.ids) << "k " << k << " trial " << trial;
      EXPECT_EQ(got->tuples, want.tuples) << "k " << k << " trial " << trial;
      EXPECT_EQ(got->overflow, want.overflow)
          << "k " << k << " trial " << trial;
    }
  }
}

TEST(SingleAttributeTest, DiscoveryFindsTheMinimum) {
  auto schema = std::move(Schema::Create(
      {{"only", AttributeKind::kRanking, InterfaceType::kRQ, 0,
        1000}})).value();
  Table t(std::move(schema));
  common::Rng rng(707);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(t.Append({rng.UniformInt(5, 1000)}).ok());
  }
  ASSERT_TRUE(t.Append({3}).ok());  // the unique minimum
  for (int k : {1, 10}) {
    auto iface = MakeInterface(&t, MakeSumRanking(), k);
    auto result = RqDbSky(iface.get());
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->skyline.size(), 1u);
    EXPECT_EQ(result->skyline[0][0], 3);
    auto iface2 = MakeInterface(&t, MakeSumRanking(), k);
    auto sq = SqDbSky(iface2.get());
    ASSERT_TRUE(sq.ok());
    EXPECT_EQ(sq->skyline.size(), 1u);
  }
}

TEST(AllNullTest, EveryTupleNullOnSomeAttribute) {
  // Each tuple is NULL somewhere; the skyline is the mutual anti-chain.
  auto schema = std::move(Schema::Create(
      {{"a", AttributeKind::kRanking, InterfaceType::kRQ, 0, 10},
       {"b", AttributeKind::kRanking, InterfaceType::kRQ, 0, 10}})).value();
  Table t(std::move(schema));
  ASSERT_TRUE(t.Append({data::kNullValue, 1}).ok());
  ASSERT_TRUE(t.Append({1, data::kNullValue}).ok());
  ASSERT_TRUE(t.Append({data::kNullValue, 2}).ok());  // dominated by #0
  auto iface = MakeInterface(&t, MakeSumRanking(), 1);
  auto result = RqDbSky(iface.get());
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectExactSkyline(*result, t);
  EXPECT_EQ(result->skyline.size(), 2u);
}

}  // namespace
}  // namespace core
}  // namespace hdsky
