// Correctness tests for the BASELINE crawler, MIXED-DB-SKY, and the
// generic MQ-DB-SKY dispatcher across interface mixtures.

#include <set>

#include <gtest/gtest.h>

#include "core/baseline_crawler.h"
#include "core/mq_db_sky.h"
#include "core/rq_db_sky.h"
#include "dataset/synthetic.h"
#include "tests/test_util.h"

namespace hdsky {
namespace core {
namespace {

using data::AttributeKind;
using data::InterfaceType;
using data::Schema;
using data::Table;
using data::TupleId;
using interface::MakeLayeredRandomRanking;
using interface::MakeSumRanking;
using testutil::ExpectExactSkyline;
using testutil::ExpectSoundSubset;
using testutil::MakeInterface;

// Builds a table whose ranking attributes carry the given interface
// types, values uniform over the given domains.
Table MakeMixed(const std::vector<InterfaceType>& ifaces,
                const std::vector<data::Value>& domains, int64_t n,
                uint64_t seed, int num_filter = 0) {
  std::vector<data::AttributeSpec> attrs;
  for (size_t i = 0; i < ifaces.size(); ++i) {
    attrs.push_back({"A" + std::to_string(i), AttributeKind::kRanking,
                     ifaces[i], 0, domains[i]});
  }
  for (int f = 0; f < num_filter; ++f) {
    attrs.push_back({"F" + std::to_string(f), AttributeKind::kFiltering,
                     InterfaceType::kFilterEquality, 0, 3});
  }
  Table t(std::move(Schema::Create(std::move(attrs))).value());
  common::Rng rng(seed);
  data::Tuple tuple(attrs.size() + ifaces.size() - ifaces.size());
  tuple.resize(static_cast<size_t>(t.schema().num_attributes()));
  for (int64_t r = 0; r < n; ++r) {
    for (size_t i = 0; i < ifaces.size(); ++i) {
      tuple[i] = rng.UniformInt(0, domains[i]);
    }
    for (int f = 0; f < num_filter; ++f) {
      tuple[ifaces.size() + static_cast<size_t>(f)] =
          rng.UniformInt(0, 3);
    }
    EXPECT_TRUE(t.Append(tuple).ok());
  }
  return t;
}

// ---------------------------------------------------------------------
// BASELINE crawler

TEST(CrawlerTest, CrawlsEverythingOnRqInterface) {
  dataset::SyntheticOptions o;
  o.num_tuples = 1500;
  o.num_attributes = 3;
  o.domain_size = 200;
  o.seed = 90;
  const Table t = std::move(dataset::GenerateSynthetic(o)).value();
  for (int k : {1, 5, 50}) {
    auto iface = MakeInterface(&t, MakeSumRanking(), k);
    auto crawl = CrawlDatabase(iface.get());
    ASSERT_TRUE(crawl.ok()) << crawl.status();
    EXPECT_TRUE(crawl->complete);
    EXPECT_EQ(static_cast<int64_t>(crawl->ids.size()), t.num_rows());
    std::set<TupleId> distinct(crawl->ids.begin(), crawl->ids.end());
    EXPECT_EQ(static_cast<int64_t>(distinct.size()), t.num_rows());
  }
}

TEST(CrawlerTest, LargerKCostsFewer) {
  dataset::SyntheticOptions o;
  o.num_tuples = 2000;
  o.num_attributes = 3;
  o.domain_size = 300;
  o.seed = 91;
  const Table t = std::move(dataset::GenerateSynthetic(o)).value();
  int64_t prev = -1;
  for (int k : {1, 10, 50}) {
    auto iface = MakeInterface(&t, MakeSumRanking(), k);
    auto crawl = CrawlDatabase(iface.get());
    ASSERT_TRUE(crawl.ok());
    if (prev > 0) {
      EXPECT_LT(crawl->query_cost, prev);
    }
    prev = crawl->query_cost;
  }
}

TEST(CrawlerTest, CrawlRegionRespectsRegion) {
  dataset::SyntheticOptions o;
  o.num_tuples = 800;
  o.num_attributes = 2;
  o.domain_size = 100;
  o.seed = 92;
  const Table t = std::move(dataset::GenerateSynthetic(o)).value();
  auto iface = MakeInterface(&t, MakeSumRanking(), 5);
  interface::Query region(2);
  region.AddAtMost(0, 30).AddAtLeast(1, 50);
  auto crawl = CrawlRegion(iface.get(), region);
  ASSERT_TRUE(crawl.ok());
  EXPECT_TRUE(crawl->complete);
  int64_t expected = 0;
  for (TupleId r = 0; r < t.num_rows(); ++r) {
    if (region.MatchesRow(t, r)) ++expected;
  }
  EXPECT_EQ(static_cast<int64_t>(crawl->ids.size()), expected);
  for (size_t i = 0; i < crawl->tuples.size(); ++i) {
    EXPECT_TRUE(region.MatchesTuple(crawl->tuples[i]));
  }
}

TEST(CrawlerTest, DuplicateHeavyRegionsNeedFiltering) {
  // More than k tuples share every ranking value; the crawler falls back
  // to enumerating the filtering attribute.
  const Table t = MakeMixed({InterfaceType::kRQ, InterfaceType::kRQ},
                            {1, 1}, 60, 93, /*num_filter=*/1);
  auto iface = MakeInterface(&t, MakeSumRanking(), 5);
  auto crawl = CrawlDatabase(iface.get());
  ASSERT_TRUE(crawl.ok());
  // 60 tuples over a 2x2 ranking grid with 4 filter values: 16 cells,
  // some cells still exceed k = 5 -> incomplete is acceptable, but the
  // majority must be retrieved.
  EXPECT_GT(static_cast<int64_t>(crawl->ids.size()), 40);
}

TEST(CrawlerTest, BudgetYieldsIncomplete) {
  dataset::SyntheticOptions o;
  o.num_tuples = 1000;
  o.num_attributes = 3;
  o.domain_size = 100;
  o.seed = 94;
  const Table t = std::move(dataset::GenerateSynthetic(o)).value();
  auto iface = MakeInterface(&t, MakeSumRanking(), 5);
  CrawlOptions opts;
  opts.common.max_queries = 20;
  auto crawl = CrawlDatabase(iface.get(), opts);
  ASSERT_TRUE(crawl.ok());
  EXPECT_FALSE(crawl->complete);
  EXPECT_LE(crawl->query_cost, 20);
  EXPECT_GT(crawl->ids.size(), 0u);
}

TEST(BaselineTest, SkylineMatchesGroundTruth) {
  dataset::SyntheticOptions o;
  o.num_tuples = 1200;
  o.num_attributes = 3;
  o.domain_size = 150;
  o.seed = 95;
  const Table t = std::move(dataset::GenerateSynthetic(o)).value();
  auto iface = MakeInterface(&t, MakeSumRanking(), 10);
  auto result = BaselineSkyline(iface.get());
  ASSERT_TRUE(result.ok());
  ExpectExactSkyline(*result, t);
  // BASELINE costs far more than direct discovery.
  auto iface2 = MakeInterface(&t, MakeSumRanking(), 10);
  auto direct = RqDbSky(iface2.get());
  ASSERT_TRUE(direct.ok());
  EXPECT_GT(result->query_cost, direct->query_cost);
}

TEST(BaselineTest, TraceIsPostHocMonotone) {
  dataset::SyntheticOptions o;
  o.num_tuples = 500;
  o.num_attributes = 2;
  o.domain_size = 80;
  o.seed = 96;
  const Table t = std::move(dataset::GenerateSynthetic(o)).value();
  auto iface = MakeInterface(&t, MakeSumRanking(), 5);
  auto result = BaselineSkyline(iface.get());
  ASSERT_TRUE(result.ok());
  testutil::ExpectWellFormedTrace(*result);
}

// ---------------------------------------------------------------------
// MQ-DB-SKY

struct MixedParam {
  std::vector<InterfaceType> ifaces;
  std::vector<data::Value> domains;
  int64_t n;
  int k;
  uint64_t seed;
};

class MqCorrectness : public ::testing::TestWithParam<MixedParam> {};

TEST_P(MqCorrectness, DiscoversExactSkyline) {
  const MixedParam& p = GetParam();
  const Table t = MakeMixed(p.ifaces, p.domains, p.n, p.seed);
  auto iface = MakeInterface(&t, MakeSumRanking(), p.k);
  auto result = MqDbSky(iface.get());
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectExactSkyline(*result, t);
}

const InterfaceType RQ = InterfaceType::kRQ;
const InterfaceType SQ = InterfaceType::kSQ;
const InterfaceType PQ = InterfaceType::kPQ;

INSTANTIATE_TEST_SUITE_P(
    Sweep, MqCorrectness,
    ::testing::Values(
        // Pure cases dispatch to the specialized algorithms.
        MixedParam{{RQ, RQ, RQ}, {100, 100, 100}, 500, 1, 101},
        MixedParam{{SQ, SQ, SQ}, {100, 100, 100}, 500, 1, 102},
        MixedParam{{PQ, PQ, PQ}, {10, 10, 10}, 400, 1, 103},
        // Mixed one-/two-ended ranges (no point attributes).
        MixedParam{{RQ, SQ, RQ}, {80, 80, 80}, 500, 1, 104},
        MixedParam{{SQ, RQ}, {60, 60}, 300, 5, 105},
        // Range + point mixtures: the interesting cases.
        MixedParam{{RQ, RQ, PQ}, {100, 100, 8}, 500, 1, 106},
        MixedParam{{RQ, RQ, PQ, PQ}, {80, 80, 6, 6}, 500, 1, 107},
        MixedParam{{RQ, PQ, PQ}, {100, 8, 8}, 400, 5, 108},
        MixedParam{{SQ, PQ}, {60, 8}, 300, 1, 109},
        MixedParam{{SQ, SQ, PQ}, {60, 60, 6}, 400, 1, 110},
        MixedParam{{RQ, SQ, PQ}, {80, 80, 6}, 400, 1, 111},
        MixedParam{{RQ, SQ, PQ, PQ}, {60, 60, 5, 5}, 300, 10, 112},
        // Small domains force heavy duplication.
        MixedParam{{RQ, PQ}, {5, 3}, 300, 5, 113},
        // Tiny databases.
        MixedParam{{RQ, PQ}, {50, 5}, 3, 1, 114},
        MixedParam{{RQ, PQ}, {50, 5}, 0, 1, 115}),
    [](const ::testing::TestParamInfo<MixedParam>& info) {
      std::string name;
      for (const InterfaceType t : info.param.ifaces) {
        name += t == InterfaceType::kRQ   ? "RQ_"
                : t == InterfaceType::kSQ ? "SQ_"
                                          : "PQ_";
      }
      return name + "n" + std::to_string(info.param.n) + "_seed" +
             std::to_string(info.param.seed);
    });

TEST(MqTest, RandomRankingMixed) {
  const Table t =
      MakeMixed({RQ, RQ, PQ}, {60, 60, 8}, 400, 116);
  auto iface = MakeInterface(&t, MakeLayeredRandomRanking(9), 1);
  auto result = MqDbSky(iface.get());
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectExactSkyline(*result, t);
}

TEST(MqTest, PhaseTwoFindsRangeDominatedTuples) {
  // Hand-built instance: u is dominated on the range attribute but beats
  // everything on the point attribute, so phase 1 alone must miss it.
  auto schema = std::move(Schema::Create(
      {{"r", AttributeKind::kRanking, RQ, 0, 100},
       {"p", AttributeKind::kRanking, PQ, 0, 5}})).value();
  Table t(std::move(schema));
  ASSERT_TRUE(t.Append({10, 3}).ok());  // range-best
  ASSERT_TRUE(t.Append({50, 0}).ok());  // u: range-dominated, point-best
  ASSERT_TRUE(t.Append({60, 4}).ok());  // dominated by both
  auto iface = MakeInterface(&t, MakeSumRanking(), 1);
  auto result = MqDbSky(iface.get());
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectExactSkyline(*result, t);
  ASSERT_EQ(result->skyline.size(), 2u);
  // Phase 1 alone (RQ over the range attribute) misses u.
  auto iface2 = MakeInterface(&t, MakeSumRanking(), 1);
  RqDbSkyOptions rq;
  rq.branch_attrs = {0};
  auto phase1 = RqDbSky(iface2.get(), rq);
  ASSERT_TRUE(phase1.ok());
  EXPECT_EQ(phase1->skyline.size(), 1u);
}

TEST(MqTest, FilteringAttributesHaveNoImplication) {
  // Section 2.1: filtering attributes do not affect skyline discovery.
  const Table with_filter =
      MakeMixed({RQ, RQ, PQ}, {60, 60, 6}, 400, 117, /*num_filter=*/2);
  auto iface = MakeInterface(&with_filter, MakeSumRanking(), 2);
  auto result = MqDbSky(iface.get());
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectExactSkyline(*result, with_filter);
}

TEST(MqTest, FilteredSubsetDiscovery) {
  // Section 2.3: discovery within a filtered subset only needs the
  // filter appended to every query; MQ must return exactly the
  // stratum's skyline.
  const Table t =
      MakeMixed({RQ, RQ, PQ}, {60, 60, 6}, 500, 120, /*num_filter=*/1);
  const int filter_attr = 3;
  auto iface = MakeInterface(&t, MakeSumRanking(), 2);
  MqDbSkyOptions opts;
  interface::Query filter(t.schema().num_attributes());
  filter.AddEquals(filter_attr, 2);
  opts.common.base_filter = filter;
  auto result = MqDbSky(iface.get(), opts);
  ASSERT_TRUE(result.ok()) << result.status();
  const Table stratum = t.FilterRows(
      [&](data::TupleId r) { return t.value(r, filter_attr) == 2; });
  EXPECT_EQ(testutil::DiscoveredValues(*result, t.schema()),
            skyline::DistinctSkylineValues(stratum));
  for (const data::Tuple& tup : result->skyline) {
    EXPECT_EQ(tup[static_cast<size_t>(filter_attr)], 2);
  }
}

TEST(MqTest, AnytimeBudget) {
  const Table t = MakeMixed({RQ, RQ, PQ, PQ}, {80, 80, 6, 6}, 600, 118);
  auto full_iface = MakeInterface(&t, MakeSumRanking(), 1);
  auto full = MqDbSky(full_iface.get());
  ASSERT_TRUE(full.ok());
  for (int64_t budget : {2, 10, 40}) {
    auto iface = MakeInterface(&t, MakeSumRanking(), 1, budget);
    auto partial = MqDbSky(iface.get());
    ASSERT_TRUE(partial.ok()) << partial.status();
    ExpectSoundSubset(*partial, t);
    if (budget < full->query_cost) {
      EXPECT_FALSE(partial->complete);
    }
  }
}

TEST(MqTest, TraceWellFormed) {
  const Table t = MakeMixed({RQ, RQ, PQ}, {60, 60, 8}, 400, 119);
  auto iface = MakeInterface(&t, MakeSumRanking(), 1);
  auto result = MqDbSky(iface.get());
  ASSERT_TRUE(result.ok());
  testutil::ExpectWellFormedTrace(*result);
}

}  // namespace
}  // namespace core
}  // namespace hdsky
