// Correctness tests for the sky-band extensions (Section 7.2): RQ, PQ,
// and the best-effort SQ variant, validated against local K-skyband
// ground truth at distinct-value granularity.

#include <algorithm>

#include <gtest/gtest.h>

#include "core/skyband_discovery.h"
#include "dataset/synthetic.h"
#include "skyline/skyband.h"
#include "tests/test_util.h"

namespace hdsky {
namespace core {
namespace {

using data::InterfaceType;
using data::Table;
using data::Tuple;
using data::TupleId;
using interface::MakeLayeredRandomRanking;
using interface::MakeSumRanking;
using testutil::MakeInterface;

Table MakeData(int m, int64_t n, int64_t domain, InterfaceType iface,
               uint64_t seed) {
  dataset::SyntheticOptions o;
  o.num_tuples = n;
  o.num_attributes = m;
  o.domain_size = domain;
  o.iface = iface;
  o.seed = seed;
  return std::move(dataset::GenerateSynthetic(o)).value();
}

// Ground-truth K-skyband as distinct ranking-value combinations.
std::vector<Tuple> BandValues(const Table& t, int band) {
  const auto& ranking = t.schema().ranking_attributes();
  std::vector<Tuple> values;
  for (TupleId row : skyline::KSkyband(t, band)) {
    Tuple v;
    for (int attr : ranking) v.push_back(t.value(row, attr));
    values.push_back(std::move(v));
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

struct BandParam {
  int m;
  int64_t n;
  int64_t domain;
  int band;
  int k;
  uint64_t seed;
};

/// Stable case name: the printed struct would include padding bytes.
std::string BandName(const BandParam& p) {
  return "m" + std::to_string(p.m) + "_n" + std::to_string(p.n) +
         "_band" + std::to_string(p.band) + "_k" + std::to_string(p.k) +
         "_seed" + std::to_string(p.seed);
}

class RqBandCorrectness : public ::testing::TestWithParam<BandParam> {};

TEST_P(RqBandCorrectness, DiscoversExactBand) {
  const BandParam p = GetParam();
  const Table t = MakeData(p.m, p.n, p.domain, InterfaceType::kRQ, p.seed);
  auto iface = MakeInterface(&t, MakeSumRanking(), p.k);
  SkybandOptions opts;
  opts.band = p.band;
  auto result = RqDbSkyband(iface.get(), opts);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->complete);
  EXPECT_EQ(testutil::DiscoveredValues(*result, t.schema()),
            BandValues(t, p.band));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RqBandCorrectness,
    ::testing::Values(BandParam{2, 200, 60, 1, 1, 130},
                      BandParam{2, 200, 60, 2, 1, 131},
                      BandParam{2, 200, 60, 3, 1, 132},
                      BandParam{3, 150, 30, 2, 1, 133},
                      BandParam{3, 150, 30, 2, 5, 134},
                      BandParam{3, 100, 20, 3, 2, 135},
                      BandParam{2, 300, 15, 2, 1, 136},  // duplicates
                      BandParam{2, 5, 40, 2, 1, 137}),
    [](const ::testing::TestParamInfo<BandParam>& info) {
      return BandName(info.param);
    });

class PqBandCorrectness : public ::testing::TestWithParam<BandParam> {};

TEST_P(PqBandCorrectness, DiscoversExactBand) {
  const BandParam p = GetParam();
  const Table t = MakeData(p.m, p.n, p.domain, InterfaceType::kPQ, p.seed);
  auto iface = MakeInterface(&t, MakeSumRanking(), p.k);
  SkybandOptions opts;
  opts.band = p.band;
  auto result = PqDbSkyband(iface.get(), opts);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->complete);
  EXPECT_EQ(testutil::DiscoveredValues(*result, t.schema()),
            BandValues(t, p.band));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PqBandCorrectness,
    ::testing::Values(BandParam{2, 200, 12, 2, 2, 140},
                      BandParam{2, 200, 12, 2, 5, 141},
                      BandParam{3, 200, 8, 2, 3, 142},
                      BandParam{3, 200, 8, 3, 3, 143},
                      BandParam{2, 300, 10, 1, 1, 144},
                      BandParam{4, 250, 6, 2, 4, 145}),
    [](const ::testing::TestParamInfo<BandParam>& info) {
      return BandName(info.param);
    });

TEST(PqBandTest, RejectsKSmallerThanBand) {
  const Table t = MakeData(2, 50, 10, InterfaceType::kPQ, 146);
  auto iface = MakeInterface(&t, MakeSumRanking(), 1);
  SkybandOptions opts;
  opts.band = 3;
  EXPECT_TRUE(PqDbSkyband(iface.get(), opts).status().IsUnsupported());
}

TEST(SqBandTest, LargeKEnablesBestEffortCompleteness) {
  // With generous k the within-answer branching rule finds pivots
  // everywhere and the band is complete.
  const Table t = MakeData(2, 150, 40, InterfaceType::kSQ, 147);
  auto iface = MakeInterface(&t, MakeSumRanking(), 25);
  SkybandOptions opts;
  opts.band = 2;
  auto result = SqDbSkyband(iface.get(), opts);
  ASSERT_TRUE(result.ok()) << result.status();
  // Sound: everything reported is in the true band.
  const auto truth = BandValues(t, 2);
  for (const Tuple& v : testutil::DiscoveredValues(*result, t.schema())) {
    EXPECT_TRUE(std::binary_search(truth.begin(), truth.end(), v));
  }
  if (result->complete) {
    EXPECT_EQ(testutil::DiscoveredValues(*result, t.schema()), truth);
  }
}

TEST(SqBandTest, BandOneDegeneratesToSkyline) {
  const Table t = MakeData(3, 200, 40, InterfaceType::kSQ, 148);
  auto iface = MakeInterface(&t, MakeSumRanking(), 1);
  SkybandOptions opts;
  opts.band = 1;
  auto result = SqDbSkyband(iface.get(), opts);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->complete);
  EXPECT_EQ(testutil::DiscoveredValues(*result, t.schema()),
            skyline::DistinctSkylineValues(t));
}

TEST(SqBandTest, CrawlWhenStuckRestoresCompleteness) {
  // k = 1 makes the pivot rule fail immediately for band 2; the crawl
  // fallback pays more queries but recovers the exact band.
  const Table t = MakeData(2, 80, 20, InterfaceType::kSQ, 149);
  auto iface = MakeInterface(&t, MakeSumRanking(), 1);
  SkybandOptions opts;
  opts.band = 2;
  opts.crawl_when_stuck = true;
  auto result = SqDbSkyband(iface.get(), opts);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->complete);
  EXPECT_EQ(testutil::DiscoveredValues(*result, t.schema()),
            BandValues(t, 2));
}

TEST(SqBandTest, StuckWithoutCrawlIsSoundButIncomplete) {
  const Table t = MakeData(2, 200, 50, InterfaceType::kSQ, 150);
  auto iface = MakeInterface(&t, MakeSumRanking(), 1);
  SkybandOptions opts;
  opts.band = 2;
  auto result = SqDbSkyband(iface.get(), opts);
  ASSERT_TRUE(result.ok()) << result.status();
  const auto truth = BandValues(t, 2);
  for (const Tuple& v : testutil::DiscoveredValues(*result, t.schema())) {
    EXPECT_TRUE(std::binary_search(truth.begin(), truth.end(), v));
  }
}

TEST(BandCostTest, DeeperBandsCostMore) {
  const Table t = MakeData(2, 200, 60, InterfaceType::kRQ, 151);
  int64_t prev = -1;
  for (int band : {1, 2, 3}) {
    auto iface = MakeInterface(&t, MakeSumRanking(), 2);
    SkybandOptions opts;
    opts.band = band;
    auto result = RqDbSkyband(iface.get(), opts);
    ASSERT_TRUE(result.ok());
    EXPECT_GT(result->query_cost, prev);
    prev = result->query_cost;
  }
}

TEST(BandTest, RandomRankingRq) {
  const Table t = MakeData(2, 150, 40, InterfaceType::kRQ, 152);
  auto iface = MakeInterface(&t, MakeLayeredRandomRanking(7), 1);
  SkybandOptions opts;
  opts.band = 2;
  auto result = RqDbSkyband(iface.get(), opts);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(testutil::DiscoveredValues(*result, t.schema()),
            BandValues(t, 2));
}

TEST(BandTest, InvalidBandRejected) {
  const Table t = MakeData(2, 10, 10, InterfaceType::kRQ, 153);
  auto iface = MakeInterface(&t, MakeSumRanking(), 1);
  SkybandOptions opts;
  opts.band = 0;
  EXPECT_TRUE(RqDbSkyband(iface.get(), opts).status().IsInvalidArgument());
  EXPECT_TRUE(PqDbSkyband(iface.get(), opts).status().IsInvalidArgument());
  EXPECT_TRUE(SqDbSkyband(iface.get(), opts).status().IsInvalidArgument());
}

}  // namespace
}  // namespace core
}  // namespace hdsky
