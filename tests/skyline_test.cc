// Unit and property tests for skyline/: dominance relations, the three
// local skyline algorithms (which must agree on every input), dominance
// layers, and K-skyband.

#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "dataset/synthetic.h"
#include "skyline/compute.h"
#include "skyline/dominance.h"
#include "skyline/skyband.h"

namespace hdsky {
namespace skyline {
namespace {

using data::Table;
using data::Tuple;
using data::TupleId;
using data::Value;

const std::vector<int> kAttrs2{0, 1};
const std::vector<int> kAttrs3{0, 1, 2};

TEST(DominanceTest, StrictDomination) {
  EXPECT_EQ(Compare({1, 2}, {2, 3}, kAttrs2), DomRelation::kDominates);
  EXPECT_EQ(Compare({2, 3}, {1, 2}, kAttrs2), DomRelation::kDominatedBy);
}

TEST(DominanceTest, WeakDominationOneAttributeTied) {
  EXPECT_EQ(Compare({1, 3}, {1, 4}, kAttrs2), DomRelation::kDominates);
  EXPECT_TRUE(Dominates({1, 3}, {1, 4}, kAttrs2));
}

TEST(DominanceTest, EqualTuplesDoNotDominate) {
  EXPECT_EQ(Compare({1, 2}, {1, 2}, kAttrs2), DomRelation::kEqual);
  EXPECT_FALSE(Dominates({1, 2}, {1, 2}, kAttrs2));
}

TEST(DominanceTest, Incomparable) {
  EXPECT_EQ(Compare({1, 5}, {5, 1}, kAttrs2), DomRelation::kIncomparable);
}

TEST(DominanceTest, NullRanksWorst) {
  EXPECT_EQ(Compare({1, 1}, {1, data::kNullValue}, kAttrs2),
            DomRelation::kDominates);
  EXPECT_EQ(Compare({data::kNullValue, 1}, {1, data::kNullValue}, kAttrs2),
            DomRelation::kIncomparable);
}

TEST(DominanceTest, OnlyRankingAttributesMatter) {
  // Third attribute ignored when attrs = {0, 1}.
  EXPECT_EQ(Compare({1, 2, 9}, {2, 3, 0}, kAttrs2),
            DomRelation::kDominates);
}

Table MakeTable(const std::vector<Tuple>& rows, int m,
                Value domain = 1000000) {
  std::vector<data::AttributeSpec> attrs;
  for (int i = 0; i < m; ++i) {
    attrs.push_back({"A" + std::to_string(i), data::AttributeKind::kRanking,
                     data::InterfaceType::kRQ, 0, domain});
  }
  Table t(std::move(data::Schema::Create(std::move(attrs))).value());
  for (const Tuple& r : rows) {
    EXPECT_TRUE(t.Append(r).ok());
  }
  return t;
}

TEST(DominanceTest, CountDominators) {
  // Chain: (0,0) dom (1,1) dom (2,2); (0, 3) incomparable with (1,1).
  const Table t = MakeTable({{0, 0}, {1, 1}, {2, 2}, {0, 3}}, 2);
  EXPECT_EQ(CountDominators(t, 0, kAttrs2), 0);
  EXPECT_EQ(CountDominators(t, 1, kAttrs2), 1);
  EXPECT_EQ(CountDominators(t, 2, kAttrs2), 2);
  EXPECT_EQ(CountDominators(t, 3, kAttrs2), 1);
}

TEST(SkylineTest, PaperExampleFigure2) {
  // The running example of Figures 2-3: t4 dominates nothing else is
  // dominated; t1, t3, t4 are on the skyline, t2 is dominated by t4.
  const Table t = MakeTable(
      {{5, 1, 9}, {4, 4, 8}, {1, 3, 7}, {3, 2, 3}}, 3);
  const std::vector<TupleId> expected{0, 2, 3};
  EXPECT_EQ(SkylineBNL(t), expected);
  EXPECT_EQ(SkylineSFS(t), expected);
  EXPECT_EQ(SkylineDnC(t), expected);
}

TEST(SkylineTest, EmptyTable) {
  const Table t = MakeTable({}, 2);
  EXPECT_TRUE(SkylineBNL(t).empty());
  EXPECT_TRUE(SkylineSFS(t).empty());
  EXPECT_TRUE(SkylineDnC(t).empty());
}

TEST(SkylineTest, SingleTuple) {
  const Table t = MakeTable({{7, 8}}, 2);
  EXPECT_EQ(SkylineBNL(t), (std::vector<TupleId>{0}));
}

TEST(SkylineTest, AllDuplicatesStayOnSkyline) {
  // Equal tuples do not dominate each other (see dominance.h).
  const Table t = MakeTable({{3, 3}, {3, 3}, {3, 3}}, 2);
  EXPECT_EQ(SkylineBNL(t).size(), 3u);
  EXPECT_EQ(SkylineSFS(t).size(), 3u);
  EXPECT_EQ(SkylineDnC(t).size(), 3u);
}

TEST(SkylineTest, TotalOrderLeavesOneTuple) {
  const Table t = MakeTable({{5, 5}, {4, 4}, {3, 3}, {2, 2}, {1, 1}}, 2);
  EXPECT_EQ(SkylineBNL(t), (std::vector<TupleId>{4}));
}

TEST(SkylineTest, AntiChainKeepsAll) {
  const Table t = MakeTable({{0, 4}, {1, 3}, {2, 2}, {3, 1}, {4, 0}}, 2);
  EXPECT_EQ(SkylineBNL(t).size(), 5u);
}

TEST(SkylineTest, SubsetOfRows) {
  const Table t = MakeTable({{0, 0}, {5, 5}, {1, 9}, {9, 1}}, 2);
  // Excluding the dominating row 0, the rest are mutually incomparable.
  const std::vector<TupleId> rows{1, 2, 3};
  EXPECT_EQ(SkylineBNL(t, rows, kAttrs2).size(), 3u);
  EXPECT_EQ(SkylineSFS(t, rows, kAttrs2).size(), 3u);
  EXPECT_EQ(SkylineDnC(t, rows, kAttrs2).size(), 3u);
}

// Property: the three algorithms agree on random inputs across
// distributions and dimensionalities.
struct SkylineParam {
  dataset::Distribution dist;
  int m;
  int64_t n;
  int64_t domain;
  uint64_t seed;
};

class SkylineAgreement : public ::testing::TestWithParam<SkylineParam> {};

TEST_P(SkylineAgreement, AllAlgorithmsAgree) {
  const SkylineParam p = GetParam();
  dataset::SyntheticOptions opts;
  opts.num_tuples = p.n;
  opts.num_attributes = p.m;
  opts.domain_size = p.domain;
  opts.distribution = p.dist;
  opts.seed = p.seed;
  const Table t = std::move(dataset::GenerateSynthetic(opts)).value();
  const auto bnl = SkylineBNL(t);
  EXPECT_EQ(bnl, SkylineSFS(t));
  EXPECT_EQ(bnl, SkylineDnC(t));
  // Every skyline member has zero dominators; every non-member has one.
  std::set<TupleId> members(bnl.begin(), bnl.end());
  for (TupleId r = 0; r < t.num_rows(); ++r) {
    bool dominated = false;
    for (TupleId s = 0; s < t.num_rows() && !dominated; ++s) {
      dominated = RowDominates(t, s, r, t.schema().ranking_attributes());
    }
    EXPECT_EQ(members.count(r) == 0, dominated) << "row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SkylineAgreement,
    ::testing::Values(
        SkylineParam{dataset::Distribution::kIndependent, 2, 200, 50, 1},
        SkylineParam{dataset::Distribution::kIndependent, 3, 300, 20, 2},
        SkylineParam{dataset::Distribution::kIndependent, 5, 150, 8, 3},
        SkylineParam{dataset::Distribution::kCorrelated, 3, 400, 100, 4},
        SkylineParam{dataset::Distribution::kCorrelated, 4, 250, 30, 5},
        SkylineParam{dataset::Distribution::kAntiCorrelated, 2, 300, 60, 6},
        SkylineParam{dataset::Distribution::kAntiCorrelated, 4, 200, 25, 7},
        SkylineParam{dataset::Distribution::kIndependent, 2, 500, 4, 8},
        SkylineParam{dataset::Distribution::kAntiCorrelated, 3, 350, 9,
                     9}),
    [](const ::testing::TestParamInfo<SkylineParam>& info) {
      return "m" + std::to_string(info.param.m) + "_n" +
             std::to_string(info.param.n) + "_seed" +
             std::to_string(info.param.seed);
    });

TEST(DominanceLayersTest, LayersPartitionAndOrder) {
  dataset::SyntheticOptions opts;
  opts.num_tuples = 200;
  opts.num_attributes = 3;
  opts.domain_size = 30;
  opts.seed = 77;
  const Table t = std::move(dataset::GenerateSynthetic(opts)).value();
  std::vector<TupleId> rows(200);
  std::iota(rows.begin(), rows.end(), 0);
  const auto layers =
      DominanceLayers(t, rows, t.schema().ranking_attributes());
  // Partition.
  size_t total = 0;
  std::set<TupleId> seen;
  for (const auto& layer : layers) {
    total += layer.size();
    for (TupleId r : layer) EXPECT_TRUE(seen.insert(r).second);
  }
  EXPECT_EQ(total, 200u);
  // Layer 0 is the skyline.
  EXPECT_EQ(layers[0], SkylineSFS(t));
  // Every tuple in layer i > 0 is dominated by some tuple in layer i-1.
  for (size_t i = 1; i < layers.size(); ++i) {
    for (TupleId r : layers[i]) {
      bool dominated = false;
      for (TupleId s : layers[i - 1]) {
        if (RowDominates(t, s, r, t.schema().ranking_attributes())) {
          dominated = true;
          break;
        }
      }
      EXPECT_TRUE(dominated) << "layer " << i << " row " << r;
    }
  }
}

TEST(DominanceLayersTest, MaxLayersCap) {
  const Table t = MakeTable({{1, 1}, {2, 2}, {3, 3}, {4, 4}}, 2);
  std::vector<TupleId> rows{0, 1, 2, 3};
  const auto layers = DominanceLayers(t, rows, kAttrs2, 2);
  EXPECT_EQ(layers.size(), 2u);
}

TEST(SkybandTest, BandOneIsSkyline) {
  dataset::SyntheticOptions opts;
  opts.num_tuples = 300;
  opts.num_attributes = 3;
  opts.domain_size = 40;
  opts.seed = 31;
  const Table t = std::move(dataset::GenerateSynthetic(opts)).value();
  EXPECT_EQ(KSkyband(t, 1), SkylineSFS(t));
}

TEST(SkybandTest, MatchesBruteForceCounts) {
  dataset::SyntheticOptions opts;
  opts.num_tuples = 150;
  opts.num_attributes = 3;
  opts.domain_size = 12;
  opts.seed = 33;
  const Table t = std::move(dataset::GenerateSynthetic(opts)).value();
  const auto& ranking = t.schema().ranking_attributes();
  for (int band : {1, 2, 3, 5}) {
    const auto got = KSkyband(t, band);
    std::vector<TupleId> expected;
    for (TupleId r = 0; r < t.num_rows(); ++r) {
      if (CountDominators(t, r, ranking) < band) expected.push_back(r);
    }
    EXPECT_EQ(got, expected) << "band " << band;
  }
}

TEST(SkybandTest, BandGrowsWithK) {
  dataset::SyntheticOptions opts;
  opts.num_tuples = 200;
  opts.num_attributes = 2;
  opts.domain_size = 50;
  opts.seed = 35;
  const Table t = std::move(dataset::GenerateSynthetic(opts)).value();
  size_t prev = 0;
  for (int band = 1; band <= 4; ++band) {
    const size_t size = KSkyband(t, band).size();
    EXPECT_GE(size, prev);
    prev = size;
  }
}

TEST(SkybandTest, InvalidBandEmpty) {
  const Table t = MakeTable({{1, 1}}, 2);
  EXPECT_TRUE(KSkyband(t, 0).empty());
}

TEST(SkybandTest, DominatorCountsCapped) {
  const Table t = MakeTable({{1, 1}, {2, 2}, {3, 3}, {4, 4}}, 2);
  const auto counts = DominatorCounts(t, {3}, kAttrs2, 2);
  EXPECT_EQ(counts[0], 2);  // capped below the true 3
}

}  // namespace
}  // namespace skyline
}  // namespace hdsky
