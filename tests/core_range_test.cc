// Correctness and behavioural tests for SQ-DB-SKY and RQ-DB-SKY across
// data distributions, dimensionalities, k values, and ranking functions
// (Theorems 2 and 3: both algorithms discover the complete skyline).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/mq_db_sky.h"
#include "core/rq_db_sky.h"
#include "core/skyband_discovery.h"
#include "core/sq_db_sky.h"
#include "dataset/blue_nile.h"
#include "dataset/synthetic.h"
#include "dataset/worst_case.h"
#include "tests/test_util.h"

namespace hdsky {
namespace core {
namespace {

using data::InterfaceType;
using data::Table;
using interface::MakeAdversarialRanking;
using interface::MakeLayeredRandomRanking;
using interface::MakeLexicographicRanking;
using interface::MakeSumRanking;
using testutil::ExpectExactSkyline;
using testutil::ExpectSoundSubset;
using testutil::ExpectWellFormedTrace;
using testutil::MakeInterface;

struct RangeParam {
  dataset::Distribution dist;
  int m;
  int64_t n;
  int64_t domain;
  int k;
  const char* ranking;  // "sum", "lex", "random", "adversarial"
  uint64_t seed;
};

/// Stable case name: the printed struct would include padding and
/// pointer bytes.
std::string RangeName(const RangeParam& p) {
  return "m" + std::to_string(p.m) + "_n" + std::to_string(p.n) + "_k" +
         std::to_string(p.k) + "_" + p.ranking + "_seed" +
         std::to_string(p.seed);
}

std::shared_ptr<interface::RankingPolicy> MakeRanking(const char* name,
                                                      uint64_t seed) {
  const std::string s = name;
  if (s == "sum") return MakeSumRanking();
  if (s == "lex") return MakeLexicographicRanking({0});
  if (s == "random") return MakeLayeredRandomRanking(seed);
  return MakeAdversarialRanking(seed);
}

Table MakeData(const RangeParam& p, InterfaceType iface) {
  dataset::SyntheticOptions o;
  o.num_tuples = p.n;
  o.num_attributes = p.m;
  o.domain_size = p.domain;
  o.distribution = p.dist;
  o.iface = iface;
  o.seed = p.seed;
  return std::move(dataset::GenerateSynthetic(o)).value();
}

class SqDbSkyCorrectness : public ::testing::TestWithParam<RangeParam> {};

TEST_P(SqDbSkyCorrectness, DiscoversExactSkyline) {
  const RangeParam p = GetParam();
  const Table t = MakeData(p, InterfaceType::kSQ);
  auto iface =
      MakeInterface(&t, MakeRanking(p.ranking, p.seed + 1), p.k);
  auto result = SqDbSky(iface.get());
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectExactSkyline(*result, t);
  ExpectWellFormedTrace(*result);
  // The run's accounting agrees with the interface's.
  EXPECT_EQ(result->query_cost, iface->stats().queries_issued);
}

class RqDbSkyCorrectness : public ::testing::TestWithParam<RangeParam> {};

TEST_P(RqDbSkyCorrectness, DiscoversExactSkyline) {
  const RangeParam p = GetParam();
  const Table t = MakeData(p, InterfaceType::kRQ);
  auto iface =
      MakeInterface(&t, MakeRanking(p.ranking, p.seed + 1), p.k);
  auto result = RqDbSky(iface.get());
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectExactSkyline(*result, t);
  ExpectWellFormedTrace(*result);
}

const RangeParam kRangeSweep[] = {
    {dataset::Distribution::kIndependent, 2, 300, 50, 1, "sum", 1},
    {dataset::Distribution::kIndependent, 3, 500, 100, 1, "sum", 2},
    {dataset::Distribution::kIndependent, 3, 500, 100, 5, "sum", 3},
    {dataset::Distribution::kIndependent, 4, 400, 30, 10, "sum", 4},
    {dataset::Distribution::kIndependent, 5, 300, 12, 3, "sum", 5},
    {dataset::Distribution::kCorrelated, 3, 600, 200, 1, "sum", 6},
    {dataset::Distribution::kAntiCorrelated, 2, 400, 80, 1, "sum", 7},
    {dataset::Distribution::kAntiCorrelated, 3, 300, 40, 5, "sum", 8},
    {dataset::Distribution::kIndependent, 3, 500, 60, 1, "lex", 9},
    {dataset::Distribution::kAntiCorrelated, 3, 250, 30, 2, "lex", 10},
    {dataset::Distribution::kIndependent, 3, 300, 25, 1, "random", 11},
    {dataset::Distribution::kIndependent, 2, 300, 40, 1, "random", 12},
    {dataset::Distribution::kAntiCorrelated, 2, 200, 30, 1, "random", 13},
    {dataset::Distribution::kIndependent, 3, 200, 20, 1, "adversarial",
     14},
    {dataset::Distribution::kIndependent, 2, 250, 35, 2, "adversarial",
     15},
    // Duplicate-heavy tiny domains.
    {dataset::Distribution::kIndependent, 3, 400, 4, 1, "sum", 16},
    {dataset::Distribution::kIndependent, 2, 500, 3, 5, "sum", 17},
    // Single tuple / tiny databases.
    {dataset::Distribution::kIndependent, 3, 1, 10, 1, "sum", 18},
    {dataset::Distribution::kIndependent, 3, 8, 10, 3, "sum", 19},
};

INSTANTIATE_TEST_SUITE_P(Sweep, SqDbSkyCorrectness,
                         ::testing::ValuesIn(kRangeSweep),
    [](const ::testing::TestParamInfo<RangeParam>& info) {
      return RangeName(info.param);
    });
INSTANTIATE_TEST_SUITE_P(Sweep, RqDbSkyCorrectness,
                         ::testing::ValuesIn(kRangeSweep),
    [](const ::testing::TestParamInfo<RangeParam>& info) {
      return RangeName(info.param);
    });

TEST(SqDbSkyTest, EmptyDatabase) {
  const Table t = MakeData(
      {dataset::Distribution::kIndependent, 3, 0, 10, 1, "sum", 1},
      InterfaceType::kSQ);
  auto iface = MakeInterface(&t, MakeSumRanking(), 1);
  auto result = SqDbSky(iface.get());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->skyline.empty());
  EXPECT_EQ(result->query_cost, 1);  // the root SELECT *
  EXPECT_TRUE(result->complete);
}

TEST(SqDbSkyTest, RejectsPointOnlyAttribute) {
  dataset::SyntheticOptions o;
  o.num_tuples = 10;
  o.iface = InterfaceType::kPQ;
  const Table t = std::move(dataset::GenerateSynthetic(o)).value();
  auto iface = MakeInterface(&t, MakeSumRanking(), 1);
  EXPECT_TRUE(SqDbSky(iface.get()).status().IsUnsupported());
}

TEST(SqDbSkyTest, WorksOnStrongerRqInterface) {
  // SQ-DB-SKY only needs upper bounds, so an RQ interface suffices.
  const Table t = MakeData(
      {dataset::Distribution::kIndependent, 3, 200, 40, 1, "sum", 21},
      InterfaceType::kRQ);
  auto iface = MakeInterface(&t, MakeSumRanking(), 1);
  auto result = SqDbSky(iface.get());
  ASSERT_TRUE(result.ok());
  ExpectExactSkyline(*result, t);
}

TEST(RqDbSkyTest, RejectsSqOnlyInterfaceByDefault) {
  const Table t = MakeData(
      {dataset::Distribution::kIndependent, 3, 50, 20, 1, "sum", 22},
      InterfaceType::kSQ);
  auto iface = MakeInterface(&t, MakeSumRanking(), 1);
  EXPECT_TRUE(RqDbSky(iface.get()).status().IsUnsupported());
  // The relaxed mode accepts it and still discovers the skyline.
  RqDbSkyOptions relaxed;
  relaxed.require_two_ended = false;
  auto result = RqDbSky(iface.get(), relaxed);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectExactSkyline(*result, t);
}

TEST(RqDbSkyTest, NeverCostsMoreQueriesOnLargeSkylines) {
  // The RQ early termination matters when |S| is large: an
  // anti-correlated duplicate-free-ish instance.
  dataset::SyntheticOptions o;
  o.num_tuples = 800;
  o.num_attributes = 3;
  o.domain_size = 2000;
  o.distribution = dataset::Distribution::kAntiCorrelated;
  o.iface = InterfaceType::kRQ;
  o.seed = 23;
  const Table t = std::move(dataset::GenerateSynthetic(o)).value();
  auto iface_sq = MakeInterface(&t, MakeSumRanking(), 1);
  auto sq = SqDbSky(iface_sq.get());
  ASSERT_TRUE(sq.ok());
  auto iface_rq = MakeInterface(&t, MakeSumRanking(), 1);
  auto rq = RqDbSky(iface_rq.get());
  ASSERT_TRUE(rq.ok());
  ExpectExactSkyline(*rq, t);
  EXPECT_LE(rq->query_cost, sq->query_cost);
}

TEST(RqDbSkyTest, DisabledEarlyTerminationMatchesSqCost) {
  const Table t = MakeData(
      {dataset::Distribution::kIndependent, 3, 300, 50, 1, "sum", 24},
      InterfaceType::kRQ);
  auto iface_a = MakeInterface(&t, MakeSumRanking(), 1);
  RqDbSkyOptions no_early;
  no_early.disable_early_termination = true;
  auto ablated = RqDbSky(iface_a.get(), no_early);
  ASSERT_TRUE(ablated.ok());
  ExpectExactSkyline(*ablated, t);
  auto iface_b = MakeInterface(&t, MakeSumRanking(), 1);
  auto sq = SqDbSky(iface_b.get());
  ASSERT_TRUE(sq.ok());
  // Same tree, same queries: identical cost.
  EXPECT_EQ(ablated->query_cost, sq->query_cost);
}

TEST(AnytimeTest, BudgetedRunsAreSoundPrefixes) {
  const Table t = MakeData(
      {dataset::Distribution::kAntiCorrelated, 3, 500, 500, 1, "sum", 25},
      InterfaceType::kRQ);
  // Full run for reference.
  auto iface_full = MakeInterface(&t, MakeSumRanking(), 1);
  auto full = RqDbSky(iface_full.get());
  ASSERT_TRUE(full.ok());
  for (int64_t budget : {1, 5, 20, 100}) {
    auto iface = MakeInterface(&t, MakeSumRanking(), 1, budget);
    auto partial = RqDbSky(iface.get());
    ASSERT_TRUE(partial.ok()) << partial.status();
    if (budget < full->query_cost) {
      EXPECT_FALSE(partial->complete);
    }
    ExpectSoundSubset(*partial, t);
    EXPECT_LE(partial->query_cost, budget);
    ExpectWellFormedTrace(*partial);
  }
}

TEST(AnytimeTest, MaxQueriesOptionLimitsDiscovery) {
  const Table t = MakeData(
      {dataset::Distribution::kAntiCorrelated, 3, 500, 500, 1, "sum", 26},
      InterfaceType::kSQ);
  SqDbSkyOptions opts;
  opts.common.max_queries = 15;
  auto iface = MakeInterface(&t, MakeSumRanking(), 1);
  auto result = SqDbSky(iface.get(), opts);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->query_cost, 15);
  ExpectSoundSubset(*result, t);
}

TEST(AnytimeTest, ProgressCallbackFires) {
  const Table t = MakeData(
      {dataset::Distribution::kIndependent, 3, 300, 60, 1, "sum", 27},
      InterfaceType::kSQ);
  SqDbSkyOptions opts;
  int calls = 0;
  int64_t last_count = 0;
  opts.common.on_progress = [&](const ProgressPoint& p) {
    ++calls;
    EXPECT_GT(p.skyline_discovered, last_count);
    last_count = p.skyline_discovered;
  };
  auto iface = MakeInterface(&t, MakeSumRanking(), 1);
  auto result = SqDbSky(iface.get(), opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(calls, static_cast<int>(result->skyline.size()));
}

TEST(BaseFilterTest, DiscoveryWithinFilteredSubset) {
  // Add a filtering attribute and discover the skyline of one stratum.
  auto schema = data::Schema::Create(
      {{"a", data::AttributeKind::kRanking, InterfaceType::kRQ, 0, 100},
       {"b", data::AttributeKind::kRanking, InterfaceType::kRQ, 0, 100},
       {"cat", data::AttributeKind::kFiltering,
        InterfaceType::kFilterEquality, 0, 2}});
  Table t(std::move(schema).value());
  common::Rng rng(29);
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(t.Append({rng.UniformInt(0, 100), rng.UniformInt(0, 100),
                          rng.UniformInt(0, 2)})
                    .ok());
  }
  auto iface = MakeInterface(&t, MakeSumRanking(), 2);
  RqDbSkyOptions opts;
  interface::Query filter(3);
  filter.AddEquals(2, 1);
  opts.common.base_filter = filter;
  auto result = RqDbSky(iface.get(), opts);
  ASSERT_TRUE(result.ok()) << result.status();
  // Ground truth: skyline of the cat == 1 stratum.
  const Table stratum =
      t.FilterRows([&](data::TupleId r) { return t.value(r, 2) == 1; });
  EXPECT_EQ(testutil::DiscoveredValues(*result, t.schema()),
            skyline::DistinctSkylineValues(stratum));
  // Every discovered tuple really is in the stratum.
  for (const data::Tuple& tup : result->skyline) {
    EXPECT_EQ(tup[2], 1);
  }
}

TEST(CostBoundTest, SqCostAtLeastSkylinePlusOne) {
  // Lower sanity bound: each skyline tuple needs >= 1 query; plus the
  // root. (Not tight; guards against under-counting.)
  const Table t = MakeData(
      {dataset::Distribution::kIndependent, 3, 300, 50, 1, "sum", 30},
      InterfaceType::kSQ);
  auto iface = MakeInterface(&t, MakeSumRanking(), 1);
  auto result = SqDbSky(iface.get());
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->query_cost,
            static_cast<int64_t>(result->skyline.size()));
}

TEST(CostBoundTest, LargerKReducesSqCost) {
  // Section 3.1: a larger k makes the tree shallower.
  const Table t = MakeData(
      {dataset::Distribution::kAntiCorrelated, 3, 600, 300, 1, "sum", 31},
      InterfaceType::kSQ);
  int64_t prev = -1;
  for (int k : {1, 10, 50}) {
    auto iface = MakeInterface(&t, MakeSumRanking(), k);
    auto result = SqDbSky(iface.get());
    ASSERT_TRUE(result.ok());
    ExpectExactSkyline(*result, t);
    if (prev >= 0) {
      EXPECT_LE(result->query_cost, prev);
    }
    prev = result->query_cost;
  }
}

TEST(WorstCaseInstanceTest, GuardsStillDiscovered) {
  // On the Theorem-1 construction both algorithms stay complete (the
  // bound is about cost, not correctness).
  dataset::WorstCaseOptions o;
  o.num_attributes = 3;
  o.num_skyline = 8;
  o.iface = InterfaceType::kRQ;
  const Table t = std::move(dataset::GenerateSqLowerBound(o)).value();
  auto iface = MakeInterface(&t, MakeAdversarialRanking(32), 1);
  auto result = RqDbSky(iface.get());
  ASSERT_TRUE(result.ok());
  ExpectExactSkyline(*result, t);
  EXPECT_EQ(result->skyline.size(), 11u);  // m guards + s payload
}

TEST(SkipImpossibleChildrenTest, SavesQueriesWithoutLosingTuples) {
  const Table t = MakeData(
      {dataset::Distribution::kIndependent, 4, 400, 10, 1, "sum", 33},
      InterfaceType::kSQ);
  auto iface_a = MakeInterface(&t, MakeSumRanking(), 1);
  auto plain = SqDbSky(iface_a.get());
  ASSERT_TRUE(plain.ok());
  auto iface_b = MakeInterface(&t, MakeSumRanking(), 1);
  SqDbSkyOptions opts;
  opts.skip_impossible_children = true;
  auto skipping = SqDbSky(iface_b.get(), opts);
  ASSERT_TRUE(skipping.ok());
  ExpectExactSkyline(*skipping, t);
  EXPECT_LE(skipping->query_cost, plain->query_cost);
}

// ---------------------------------------------------------------------
// RQ-DB-SKY's query sequence, pinned. The seen-match test and the pivot
// choice decide which query each node issues; a change to either that is
// not exact shows up here as a different cost or a different sequence.

/// Forwards to `inner` and folds every answered query's signature into a
/// 64-bit FNV-1a hash, in issue order. After Rearm(n), queries past the
/// n-th answer fail with ResourceExhausted until the next Rearm — a
/// paused session.
class RecordingDatabase : public interface::HiddenDatabase {
 public:
  explicit RecordingDatabase(interface::HiddenDatabase* inner)
      : inner_(inner) {}
  const data::Schema& schema() const override { return inner_->schema(); }
  int k() const override { return inner_->k(); }
  common::Result<interface::QueryResult> Execute(
      const interface::Query& q) override {
    if (remaining_ == 0) {
      return common::Status::ResourceExhausted("paused");
    }
    auto r = inner_->Execute(q);
    if (!r.ok()) return r;
    if (remaining_ > 0) --remaining_;
    for (const char c : q.Signature() + '|') {
      hash_ = (hash_ ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
    }
    ++answered_;
    return r;
  }
  void Rearm(int64_t answers) { remaining_ = answers; }
  uint64_t hash() const { return hash_; }
  int64_t answered() const { return answered_; }

 private:
  interface::HiddenDatabase* inner_;
  int64_t remaining_ = -1;
  uint64_t hash_ = 0xcbf29ce484222325ULL;
  int64_t answered_ = 0;
};

struct Pin {
  int64_t query_cost;
  uint64_t hash;
};

using Algorithm = std::function<common::Result<DiscoveryResult>(
    interface::HiddenDatabase*)>;

void ExpectPinned(const std::string& name, const Table& t, int k,
                  const Algorithm& run, const Pin& pin) {
  SCOPED_TRACE(name);
  auto iface = MakeInterface(&t, MakeSumRanking(), k);
  RecordingDatabase db(iface.get());
  auto result = run(&db);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->complete);
  EXPECT_EQ(result->query_cost, db.answered());
  EXPECT_EQ(result->query_cost, pin.query_cost);
  EXPECT_EQ(db.hash(), pin.hash) << std::hex << db.hash();
}

Table MakeNullLaced(int64_t n, uint64_t seed) {
  Table t(std::move(data::Schema::Create(
                        {{"a", data::AttributeKind::kRanking,
                          InterfaceType::kRQ, 0, 1000},
                         {"b", data::AttributeKind::kRanking,
                          InterfaceType::kRQ, 0, 1060},
                         {"c", data::AttributeKind::kRanking,
                          InterfaceType::kRQ, 0, 1000}}))
              .value());
  // a and b anti-correlate, so the skyline is large; about one value in
  // seven is NULL.
  common::Rng rng(seed);
  for (int64_t r = 0; r < n; ++r) {
    const data::Value a = rng.UniformInt(0, 1000);
    data::Tuple tuple = {a, 1000 - a + rng.UniformInt(0, 60),
                         rng.UniformInt(0, 1000)};
    for (data::Value& v : tuple) {
      if (rng.UniformInt(0, 6) == 0) v = data::kNullValue;
    }
    EXPECT_TRUE(t.Append(tuple).ok());
  }
  return t;
}

TEST(RqDbSkyTest, QuerySequenceIsPinned) {
  {
    dataset::BlueNileOptions o;
    o.num_tuples = 20000;
    const Table t = std::move(dataset::GenerateBlueNile(o)).value();
    ExpectPinned(
        "bluenile n=20000", t, 10,
        [](interface::HiddenDatabase* db) { return RqDbSky(db); },
        {5356, 0x28a4b1b2e3fbea3eULL});
  }
  {
    // Two range attributes, one point attribute and an equality filter:
    // MQ-DB-SKY's first phase is RQ-DB-SKY under a base filter, branching
    // on the range attributes only. Its pivot is the first confirmed
    // tuple dominating T0 on those two; dominance on all three would
    // change this sequence.
    Table t(std::move(data::Schema::Create(
                          {{"r0", data::AttributeKind::kRanking,
                            InterfaceType::kRQ, 0, 80},
                           {"s1", data::AttributeKind::kRanking,
                            InterfaceType::kSQ, 0, 80},
                           {"p2", data::AttributeKind::kRanking,
                            InterfaceType::kPQ, 0, 60},
                           {"f", data::AttributeKind::kFiltering,
                            InterfaceType::kFilterEquality, 0, 3}}))
                .value());
    common::Rng rng(71);
    for (int r = 0; r < 4000; ++r) {
      ASSERT_TRUE(t.Append({rng.UniformInt(0, 80), rng.UniformInt(0, 80),
                            rng.UniformInt(0, 60), rng.UniformInt(0, 3)})
                      .ok());
    }
    ExpectPinned(
        "mq base filter", t, 3,
        [](interface::HiddenDatabase* db) {
          MqDbSkyOptions o;
          interface::Query filter(4);
          filter.AddEquals(3, 2);
          o.common.base_filter = filter;
          return MqDbSky(db, o);
        },
        {332, 0x66f8d9f220a8f5ffULL});
  }
  {
    dataset::SyntheticOptions o;
    o.num_tuples = 1500;
    o.num_attributes = 3;
    o.domain_size = 300;
    o.distribution = dataset::Distribution::kAntiCorrelated;
    o.iface = InterfaceType::kSQ;
    o.seed = 72;
    const Table t = std::move(dataset::GenerateSynthetic(o)).value();
    ExpectPinned(
        "one-ended ranges", t, 2,
        [](interface::HiddenDatabase* db) {
          RqDbSkyOptions rq;
          rq.require_two_ended = false;
          return RqDbSky(db, rq);
        },
        {1181, 0x065e2c156f065d5dULL});
  }
  ExpectPinned(
      "nulls", MakeNullLaced(3000, 73), 2,
      [](interface::HiddenDatabase* db) { return RqDbSky(db); },
      {1073, 0xcc2275cfefaf2f54ULL});
  {
    const Table t = MakeData(
        {dataset::Distribution::kAntiCorrelated, 4, 2000, 12, 1, "sum", 74},
        InterfaceType::kRQ);
    ExpectPinned(
        "skip duplicate nodes", t, 1,
        [](interface::HiddenDatabase* db) {
          RqDbSkyOptions rq;
          rq.skip_duplicate_nodes = true;
          return RqDbSky(db, rq);
        },
        {528, 0x5b1b13c770adbfe0ULL});
  }
  {
    const Table t = MakeData(
        {dataset::Distribution::kAntiCorrelated, 3, 600, 200, 1, "sum", 75},
        InterfaceType::kRQ);
    ExpectPinned(
        "sky-band h=2", t, 2,
        [](interface::HiddenDatabase* db) {
          SkybandOptions o;
          o.band = 2;
          return RqDbSkyband(db, o);
        },
        {1870, 0xf9c3c39e230bf216ULL});
  }
  {
    // Paused every 97 answers; each pause saves the run state and the
    // frontier and a fresh traversal resumes from the two blobs.
    const Table t = MakeData(
        {dataset::Distribution::kAntiCorrelated, 4, 3000, 500, 3, "sum", 76},
        InterfaceType::kRQ);
    ExpectPinned(
        "paused and resumed", t, 3,
        [](interface::HiddenDatabase* db) -> common::Result<DiscoveryResult> {
          auto* recording = static_cast<RecordingDatabase*>(db);
          RqDbSkyOptions rq;
          HDSKY_ASSIGN_OR_RETURN(std::unique_ptr<ResumableDiscovery> d,
                                 MakeRqDbSky(db, rq));
          int pauses = 0;
          for (;;) {
            recording->Rearm(97);
            const common::Status s = d->Continue();
            if (s.ok()) break;
            if (!s.IsResourceExhausted()) return s;
            ++pauses;
            std::string run_state, frontier;
            d->run().SaveState(&run_state);
            d->SaveFrontier(&frontier);
            RqDbSkyOptions resume;
            resume.common.resume_run_state = run_state;
            resume.common.resume_frontier = frontier;
            HDSKY_ASSIGN_OR_RETURN(d, MakeRqDbSky(db, resume));
          }
          EXPECT_GT(pauses, 3);
          return d->run().Finish();
        },
        {1003, 0x1a083b02498bb68cULL});
  }
}

}  // namespace
}  // namespace core
}  // namespace hdsky
