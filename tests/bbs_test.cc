// Tests for the R-tree and the branch-and-bound skyline (BBS): structure
// invariants, agreement with the scan-based operators, the progressive
// emission order, and the K-skyband generalization.

#include <functional>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "dataset/synthetic.h"
#include "skyline/bbs.h"
#include "skyline/compute.h"
#include "skyline/skyband.h"

namespace hdsky {
namespace skyline {
namespace {

using data::Table;
using data::TupleId;
using data::Value;

Table MakeData(int64_t n, int m, int64_t domain, uint64_t seed,
               dataset::Distribution dist =
                   dataset::Distribution::kIndependent) {
  dataset::SyntheticOptions o;
  o.num_tuples = n;
  o.num_attributes = m;
  o.domain_size = domain;
  o.distribution = dist;
  o.seed = seed;
  return std::move(dataset::GenerateSynthetic(o)).value();
}

TEST(RTreeTest, BuildValidation) {
  const Table t = MakeData(10, 2, 10, 1);
  EXPECT_FALSE(RTree::Build(nullptr).ok());
  EXPECT_FALSE(RTree::Build(&t, 1).ok());
  EXPECT_TRUE(RTree::Build(&t).ok());
}

TEST(RTreeTest, EmptyTable) {
  const Table t = MakeData(0, 2, 10, 2);
  auto tree = RTree::Build(&t);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(tree->empty());
}

TEST(RTreeTest, StructureInvariants) {
  const Table t = MakeData(500, 3, 40, 3);
  const RTree tree = std::move(RTree::Build(&t, 8)).value();
  ASSERT_FALSE(tree.empty());
  // Every row appears in exactly one leaf, and every node's MBR contains
  // its subtree.
  std::set<TupleId> seen;
  std::function<void(int32_t, const Mbr*)> walk = [&](int32_t id,
                                                      const Mbr* outer) {
    const RTree::Node& node = tree.node(id);
    if (outer != nullptr) {
      for (size_t d = 0; d < node.mbr.min.size(); ++d) {
        EXPECT_GE(node.mbr.min[d], outer->min[d]);
        EXPECT_LE(node.mbr.max[d], outer->max[d]);
      }
    }
    if (node.is_leaf()) {
      EXPECT_LE(node.rows.size(), 8u);
      for (TupleId row : node.rows) {
        EXPECT_TRUE(seen.insert(row).second);
        for (size_t d = 0; d < node.mbr.min.size(); ++d) {
          const Value v = t.value(
              row, tree.ranking_attrs()[d]);
          EXPECT_GE(v, node.mbr.min[d]);
          EXPECT_LE(v, node.mbr.max[d]);
        }
      }
    } else {
      EXPECT_LE(node.children.size(), 8u);
      for (int32_t child : node.children) walk(child, &node.mbr);
    }
  };
  walk(tree.root(), nullptr);
  EXPECT_EQ(seen.size(), 500u);
}

struct BbsParam {
  dataset::Distribution dist;
  int m;
  int64_t n;
  int64_t domain;
  uint64_t seed;
};

class BbsAgreement : public ::testing::TestWithParam<BbsParam> {};

TEST_P(BbsAgreement, MatchesScanAlgorithms) {
  const BbsParam p = GetParam();
  const Table t = MakeData(p.n, p.m, p.domain, p.seed, p.dist);
  auto bbs = SkylineBBS(t);
  ASSERT_TRUE(bbs.ok());
  EXPECT_EQ(*bbs, SkylineSFS(t));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BbsAgreement,
    ::testing::Values(
        BbsParam{dataset::Distribution::kIndependent, 2, 300, 50, 10},
        BbsParam{dataset::Distribution::kIndependent, 3, 500, 25, 11},
        BbsParam{dataset::Distribution::kIndependent, 5, 300, 10, 12},
        BbsParam{dataset::Distribution::kCorrelated, 3, 400, 60, 13},
        BbsParam{dataset::Distribution::kAntiCorrelated, 3, 400, 40, 14},
        BbsParam{dataset::Distribution::kAntiCorrelated, 4, 250, 15, 15},
        BbsParam{dataset::Distribution::kIndependent, 2, 400, 4, 16},
        BbsParam{dataset::Distribution::kIndependent, 3, 1, 10, 17}),
    [](const ::testing::TestParamInfo<BbsParam>& info) {
      return "m" + std::to_string(info.param.m) + "_n" +
             std::to_string(info.param.n) + "_seed" +
             std::to_string(info.param.seed);
    });

TEST(BbsTest, ProgressiveEmissionInMonotoneScoreOrder) {
  const Table t =
      MakeData(600, 3, 50, 20, dataset::Distribution::kAntiCorrelated);
  const RTree tree = std::move(RTree::Build(&t)).value();
  std::vector<TupleId> order;
  auto result = SkylineBBS(
      tree, [&](TupleId row) { order.push_back(row); });
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(order.size(), result->size());
  // Emission follows ascending sum-of-values (mindist), the progressive
  // guarantee that makes BBS an online algorithm.
  auto score = [&](TupleId row) {
    int64_t s = 0;
    for (int a : tree.ranking_attrs()) s += t.value(row, a);
    return s;
  };
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(score(order[i - 1]), score(order[i])) << i;
  }
}

TEST(BbsTest, SkybandMatchesGroundTruth) {
  const Table t =
      MakeData(300, 3, 20, 21, dataset::Distribution::kAntiCorrelated);
  const RTree tree = std::move(RTree::Build(&t)).value();
  for (int band : {1, 2, 3, 5}) {
    auto got = SkybandBBS(tree, band);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, KSkyband(t, band)) << "band " << band;
  }
  EXPECT_FALSE(SkybandBBS(tree, 0).ok());
}

TEST(BbsTest, DuplicateValuesAllEmitted) {
  auto schema = std::move(data::Schema::Create(
      {{"a", data::AttributeKind::kRanking, data::InterfaceType::kRQ, 0,
        10},
       {"b", data::AttributeKind::kRanking, data::InterfaceType::kRQ, 0,
        10}})).value();
  Table t(std::move(schema));
  ASSERT_TRUE(t.Append({2, 2}).ok());
  ASSERT_TRUE(t.Append({2, 2}).ok());
  ASSERT_TRUE(t.Append({5, 5}).ok());
  auto bbs = SkylineBBS(t);
  ASSERT_TRUE(bbs.ok());
  EXPECT_EQ(*bbs, (std::vector<TupleId>{0, 1}));
}

}  // namespace
}  // namespace skyline
}  // namespace hdsky
