// Randomized differential testing: MQ-DB-SKY (which dispatches across
// every specialized algorithm) against local ground truth on randomly
// drawn schemas — random interface-type mixes, domain sizes, skew,
// filtering attributes, k, ranking functions, and database sizes. Each
// seed is an independent scenario; a failure prints the full recipe.

#include <numeric>

#include <gtest/gtest.h>

#include "core/mq_db_sky.h"
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
using data::Value;
using testutil::MakeInterface;

struct Scenario {
  Table table;
  int k;
  std::shared_ptr<interface::RankingPolicy> ranking;
  std::string recipe;
};

Scenario DrawScenario(uint64_t seed) {
  common::Rng rng(seed);
  const int num_ranking = static_cast<int>(rng.UniformInt(2, 5));
  const int num_filtering = static_cast<int>(rng.UniformInt(0, 2));
  std::string recipe = "seed=" + std::to_string(seed) + " attrs=";

  std::vector<data::AttributeSpec> attrs;
  for (int i = 0; i < num_ranking; ++i) {
    data::AttributeSpec a;
    a.name = "R" + std::to_string(i);
    a.kind = AttributeKind::kRanking;
    const int64_t iface_pick = rng.UniformInt(0, 2);
    // PQ attributes get small domains (the paper's premise); range
    // attributes may be large.
    if (iface_pick == 2) {
      a.iface = InterfaceType::kPQ;
      a.domain_max = rng.UniformInt(2, 12);
    } else {
      a.iface = iface_pick == 0 ? InterfaceType::kRQ : InterfaceType::kSQ;
      a.domain_max = rng.UniformInt(4, 400);
    }
    a.domain_min = 0;
    recipe += std::string(a.iface == InterfaceType::kRQ   ? "RQ"
                          : a.iface == InterfaceType::kSQ ? "SQ"
                                                          : "PQ") +
              ":" + std::to_string(a.domain_max + 1) + ",";
    attrs.push_back(std::move(a));
  }
  for (int f = 0; f < num_filtering; ++f) {
    attrs.push_back({"F" + std::to_string(f), AttributeKind::kFiltering,
                     InterfaceType::kFilterEquality, 0,
                     rng.UniformInt(1, 6)});
  }
  Table table(std::move(Schema::Create(attrs)).value());

  const int64_t n = rng.UniformInt(0, 800);
  // Mix of independent and correlated columns via a shared latent value.
  const double corr = rng.UniformReal();
  Tuple t(attrs.size());
  for (int64_t row = 0; row < n; ++row) {
    const double latent = rng.UniformReal();
    for (size_t a = 0; a < attrs.size(); ++a) {
      const auto& spec = attrs[a];
      const double u = rng.Bernoulli(corr) ? latent : rng.UniformReal();
      t[a] = spec.domain_min +
             static_cast<Value>(u * static_cast<double>(
                                        spec.DomainSize() - 1) +
                                0.5);
    }
    EXPECT_TRUE(table.Append(t).ok());
  }

  Scenario s{std::move(table), static_cast<int>(rng.UniformInt(1, 20)),
             nullptr, ""};
  const int64_t ranking_pick = rng.UniformInt(0, 2);
  if (ranking_pick == 0) {
    s.ranking = interface::MakeSumRanking();
    recipe += " ranking=sum";
  } else if (ranking_pick == 1) {
    std::vector<double> w;
    for (int i = 0; i < num_ranking; ++i) {
      w.push_back(rng.UniformReal(0.1, 4.0));
    }
    s.ranking = interface::MakeLinearRanking(std::move(w));
    recipe += " ranking=weighted";
  } else {
    s.ranking = interface::MakeLayeredRandomRanking(seed * 7 + 1);
    recipe += " ranking=layered-random";
  }
  recipe += " n=" + std::to_string(n) + " k=" + std::to_string(s.k) +
            " corr=" + std::to_string(corr);
  s.recipe = recipe;
  return s;
}

class MqFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MqFuzz, MatchesGroundTruthOnRandomScenario) {
  Scenario s = DrawScenario(GetParam() * 2654435761ULL + 17);
  auto iface = MakeInterface(&s.table, s.ranking, s.k);
  auto result = MqDbSky(iface.get());
  ASSERT_TRUE(result.ok()) << s.recipe << " -> " << result.status();
  EXPECT_TRUE(result->complete) << s.recipe;
  EXPECT_EQ(testutil::DiscoveredValues(*result, s.table.schema()),
            skyline::DistinctSkylineValues(s.table))
      << s.recipe;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MqFuzz,
                         ::testing::Range<uint64_t>(0, 60),
    [](const ::testing::TestParamInfo<uint64_t>& info) {
      return "seed" + std::to_string(info.param);
    });

}  // namespace
}  // namespace core
}  // namespace hdsky
