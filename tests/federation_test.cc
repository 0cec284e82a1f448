// Tests for the federation subsystem: budget scheduler, cross-backend
// pruning decorator, entity merge, and end-to-end federated discovery
// over multiple local backends.

#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rq_db_sky.h"
#include "dataset/blue_nile.h"
#include "dataset/synthetic.h"
#include "federation/budget_scheduler.h"
#include "federation/entity_merge.h"
#include "federation/federated_discovery.h"
#include "federation/pruning_database.h"
#include "recovery/federation_state.h"
#include "skyline/compute.h"
#include "skyline/dominance.h"
#include "skyline/dominance_index.h"
#include "tests/test_util.h"

namespace hdsky {
namespace {

using data::Table;
using data::Tuple;
using data::TupleId;
using federation::AllocateBudget;
using federation::BackendYield;
using federation::Candidate;
using federation::EntityObservation;
using federation::FederatedResult;
using federation::FederationOptions;
using federation::JoinSkyline;
using federation::MergeUnionSkyline;
using federation::PruningDatabase;
using federation::RunFederatedDiscovery;
using interface::MakeSumRanking;
using testutil::MakeInterface;

// ---------------------------------------------------------------------------
// Budget scheduler

TEST(BudgetSchedulerTest, InactiveBackendsGetNothing) {
  std::vector<BackendYield> yields(3);
  yields[1].active = true;
  yields[1].ranking_attrs = 2;
  const auto alloc = AllocateBudget(yields, 100, 4);
  EXPECT_EQ(alloc[0], 0);
  EXPECT_EQ(alloc[1], 100);
  EXPECT_EQ(alloc[2], 0);
}

TEST(BudgetSchedulerTest, EveryUnitAssignedAndMinShareHolds) {
  std::vector<BackendYield> yields(3);
  for (int i = 0; i < 3; ++i) {
    yields[static_cast<size_t>(i)].active = true;
    yields[static_cast<size_t>(i)].ranking_attrs = 3;
    yields[static_cast<size_t>(i)].confirmed = 10 * (i + 1);
  }
  const int64_t budget = 101;  // odd on purpose: remainder must go somewhere
  const auto alloc = AllocateBudget(yields, budget, 4);
  int64_t total = 0;
  for (const int64_t a : alloc) {
    EXPECT_GE(a, 4);
    total += a;
  }
  EXPECT_EQ(total, budget);
}

TEST(BudgetSchedulerTest, HigherObservedYieldWinsBudget) {
  std::vector<BackendYield> yields(2);
  for (auto& y : yields) {
    y.active = true;
    y.ranking_attrs = 2;
    y.confirmed = 20;
    y.last_round_paid = 20;
  }
  yields[0].last_round_new = 10;  // 2 queries per new tuple
  yields[1].last_round_new = 1;   // 20 queries per new tuple
  const auto alloc = AllocateBudget(yields, 100, 4);
  EXPECT_GT(alloc[0], alloc[1]);
  EXPECT_EQ(alloc[0] + alloc[1], 100);
}

TEST(BudgetSchedulerTest, DeterministicForEqualInputs) {
  std::vector<BackendYield> yields(4);
  for (size_t i = 0; i < yields.size(); ++i) {
    yields[i].active = true;
    yields[i].ranking_attrs = 2 + static_cast<int>(i % 2);
    yields[i].confirmed = static_cast<int64_t>(7 * i);
    yields[i].last_round_paid = static_cast<int64_t>(3 * i);
    yields[i].last_round_new = static_cast<int64_t>(i);
  }
  EXPECT_EQ(AllocateBudget(yields, 77, 2), AllocateBudget(yields, 77, 2));
}

// ---------------------------------------------------------------------------
// PruningDatabase

data::Schema TwoAttrRqSchema() {
  return std::move(data::Schema::Create(
                       {{"a", data::AttributeKind::kRanking,
                         data::InterfaceType::kRQ, 0, 100},
                        {"b", data::AttributeKind::kRanking,
                         data::InterfaceType::kRQ, 0, 100}}))
      .value();
}

TEST(PruningDatabaseTest, PrunesRegionDominatedByFrozenWitness) {
  Table t(TwoAttrRqSchema());
  ASSERT_TRUE(t.Append({50, 50}).ok());
  auto iface = MakeInterface(&t, MakeSumRanking(), 5);
  PruningDatabase pruner(iface.get());

  skyline::DominanceIndex frozen({0, 1});
  frozen.Insert({10, 10});
  pruner.StartRound(-1, &frozen);

  // Region [20, 100] x [20, 100]: best corner (20, 20) is dominated by
  // the witness (10, 10) — answered free and empty.
  interface::Query pruned_q(2);
  pruned_q.AddAtLeast(0, 20).AddAtLeast(1, 20);
  auto r1 = pruner.Execute(pruned_q);
  ASSERT_TRUE(r1.ok()) << r1.status();
  EXPECT_TRUE(r1->empty());
  EXPECT_FALSE(r1->overflow);
  EXPECT_EQ(pruner.pruned(), 1);
  EXPECT_EQ(pruner.paid(), 0);

  // Region [5, 100] x [5, 100]: corner (5, 5) beats the witness — the
  // query is forwarded and pays.
  interface::Query open_q(2);
  open_q.AddAtLeast(0, 5).AddAtLeast(1, 5);
  auto r2 = pruner.Execute(open_q);
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(r2->size(), 1);
  EXPECT_EQ(pruner.paid(), 1);
}

TEST(PruningDatabaseTest, EqualCornerIsPrunedToo) {
  Table t(TwoAttrRqSchema());
  ASSERT_TRUE(t.Append({50, 50}).ok());
  auto iface = MakeInterface(&t, MakeSumRanking(), 5);
  PruningDatabase pruner(iface.get());

  skyline::DominanceIndex frozen({0, 1});
  frozen.Insert({20, 20});
  pruner.StartRound(-1, &frozen);

  // Corner exactly equals the witness: a value duplicate cannot improve
  // the union skyline, so equality prunes as well.
  interface::Query q(2);
  q.AddAtLeast(0, 20).AddAtLeast(1, 20);
  auto r = pruner.Execute(q);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->empty());
  EXPECT_EQ(pruner.pruned(), 1);
}

TEST(PruningDatabaseTest, AllowancePausesAndResumesAcrossRounds) {
  Table t(TwoAttrRqSchema());
  ASSERT_TRUE(t.Append({1, 2}).ok());
  ASSERT_TRUE(t.Append({2, 1}).ok());
  auto iface = MakeInterface(&t, MakeSumRanking(), 1);
  PruningDatabase pruner(iface.get());

  pruner.StartRound(1, nullptr);
  interface::Query q(2);
  EXPECT_TRUE(pruner.Execute(q).ok());
  EXPECT_EQ(pruner.remaining(), 0);
  auto starved = pruner.Execute(q);
  EXPECT_TRUE(starved.status().IsResourceExhausted());
  EXPECT_TRUE(pruner.round_paused());
  EXPECT_FALSE(pruner.backend_exhausted());

  // A new round's allowance clears the pause.
  pruner.StartRound(1, nullptr);
  EXPECT_FALSE(pruner.round_paused());
  EXPECT_TRUE(pruner.Execute(q).ok());
  EXPECT_EQ(pruner.paid(), 2);
}

TEST(PruningDatabaseTest, BackendBudgetExhaustionIsTerminal) {
  Table t(TwoAttrRqSchema());
  ASSERT_TRUE(t.Append({1, 2}).ok());
  auto iface = MakeInterface(&t, MakeSumRanking(), 1, /*budget=*/1);
  PruningDatabase pruner(iface.get());

  pruner.StartRound(-1, nullptr);
  interface::Query q(2);
  EXPECT_TRUE(pruner.Execute(q).ok());
  auto refused = pruner.Execute(q);
  EXPECT_TRUE(refused.status().IsResourceExhausted());
  EXPECT_TRUE(pruner.backend_exhausted());
  EXPECT_FALSE(pruner.round_paused());
}

TEST(PruningDatabaseTest, ObservedPoolDeduplicatesById) {
  Table t(TwoAttrRqSchema());
  ASSERT_TRUE(t.Append({1, 2}).ok());
  ASSERT_TRUE(t.Append({2, 1}).ok());
  auto iface = MakeInterface(&t, MakeSumRanking(), 5);
  PruningDatabase pruner(iface.get());

  pruner.StartRound(-1, nullptr);
  interface::Query q(2);
  EXPECT_TRUE(pruner.Execute(q).ok());
  EXPECT_TRUE(pruner.Execute(q).ok());  // same page again
  EXPECT_EQ(pruner.paid(), 2);
  EXPECT_EQ(pruner.observed_ids().size(), 2u);
  EXPECT_EQ(pruner.observed_tuples().size(), 2u);
}

// ---------------------------------------------------------------------------
// Entity merge

Candidate MakeCandidate(int backend, TupleId id, Tuple rank_values) {
  Candidate c;
  c.backend = backend;
  c.id = id;
  c.tuple = rank_values;
  c.rank_values = std::move(rank_values);
  return c;
}

TEST(EntityMergeTest, GroupsDuplicateRanksAcrossSources) {
  // The same rank vector surfaces on two backends (and twice on one of
  // them under different listing ids): one group, every source listed.
  std::vector<Candidate> cands;
  cands.push_back(MakeCandidate(1, 7, {3, 4}));
  cands.push_back(MakeCandidate(0, 2, {3, 4}));
  cands.push_back(MakeCandidate(0, 9, {3, 4}));
  cands.push_back(MakeCandidate(1, 1, {1, 9}));
  const auto groups = MergeUnionSkyline(std::move(cands));
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].rank_values, Tuple({1, 9}));
  EXPECT_EQ(groups[1].rank_values, Tuple({3, 4}));
  ASSERT_EQ(groups[1].sources.size(), 3u);
  // Sources sorted by (backend, id); representative is the first.
  EXPECT_EQ(groups[1].sources[0], std::make_pair(0, TupleId{2}));
  EXPECT_EQ(groups[1].sources[1], std::make_pair(0, TupleId{9}));
  EXPECT_EQ(groups[1].sources[2], std::make_pair(1, TupleId{7}));
}

TEST(EntityMergeTest, CrossBackendDominanceIsFiltered) {
  std::vector<Candidate> cands;
  cands.push_back(MakeCandidate(0, 1, {5, 5}));
  cands.push_back(MakeCandidate(1, 1, {4, 5}));  // dominates backend 0's
  const auto groups = MergeUnionSkyline(std::move(cands));
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].rank_values, Tuple({4, 5}));
}

TEST(EntityMergeTest, EmptyMergeYieldsEmptySkyline) {
  EXPECT_TRUE(MergeUnionSkyline({}).empty());
}

TEST(EntityMergeTest, JoinRequiresEveryBackend) {
  // Entity keys: 1 on both backends, 2 only on backend 0.
  std::vector<std::vector<EntityObservation>> obs(2);
  obs[0].push_back({1, {5, 5}});
  obs[0].push_back({2, {1, 1}});
  obs[1].push_back({1, {3, 7}});
  const auto joined = JoinSkyline(obs, 2);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0].key, 1);
  // Componentwise best across backends.
  EXPECT_EQ(joined[0].rank_values, Tuple({3, 5}));
}

TEST(EntityMergeTest, JoinSkylineFiltersDominatedEntities) {
  std::vector<std::vector<EntityObservation>> obs(1);
  obs[0].push_back({1, {2, 2}});
  obs[0].push_back({2, {3, 3}});  // dominated by entity 1
  obs[0].push_back({3, {1, 4}});
  const auto joined = JoinSkyline(obs, 1);
  ASSERT_EQ(joined.size(), 2u);
  EXPECT_EQ(joined[0].key, 1);
  EXPECT_EQ(joined[1].key, 3);
}

// ---------------------------------------------------------------------------
// End-to-end federated discovery

/// Three independently seeded small catalogs of the same shape.
std::vector<Table> ThreeSites(int64_t n) {
  std::vector<Table> sites;
  for (int s = 1; s <= 3; ++s) {
    dataset::BlueNileOptions o;
    o.num_tuples = n;
    o.seed = static_cast<uint64_t>(s);
    sites.push_back(std::move(dataset::GenerateBlueNile(o)).value());
  }
  return sites;
}

std::set<Tuple> MergedGroundTruth(const std::vector<Table>& sites) {
  Table merged(sites[0].schema());
  for (const Table& t : sites) {
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      EXPECT_TRUE(merged.Append(t.GetTuple(r)).ok());
    }
  }
  const std::vector<int> attrs = merged.schema().ranking_attributes();
  std::set<Tuple> truth;
  for (const TupleId id : skyline::SkylineSFS(merged)) {
    Tuple p(attrs.size());
    for (size_t a = 0; a < attrs.size(); ++a) {
      p[a] = merged.value(id, attrs[a]);
    }
    truth.insert(std::move(p));
  }
  return truth;
}

std::set<Tuple> FederatedValues(const FederatedResult& r) {
  std::set<Tuple> found;
  for (const auto& g : r.skyline) found.insert(g.rank_values);
  return found;
}

TEST(FederatedDiscoveryTest, UnionEqualsMergedSkylineAndNeverPaysMore) {
  const std::vector<Table> sites = ThreeSites(300);
  int64_t sequential = 0;
  std::vector<std::unique_ptr<interface::TopKInterface>> ifaces;
  std::vector<interface::HiddenDatabase*> backends;
  for (const Table& t : sites) {
    auto iface = MakeInterface(&t, MakeSumRanking(), 10);
    auto solo = core::RqDbSky(iface.get());
    ASSERT_TRUE(solo.ok()) << solo.status();
    sequential += solo->query_cost;
    ifaces.push_back(MakeInterface(&t, MakeSumRanking(), 10));
    backends.push_back(ifaces.back().get());
  }

  FederationOptions opts;
  opts.mode = FederationOptions::Mode::kUnion;
  opts.round_budget = 32;
  auto r = RunFederatedDiscovery(backends, opts);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->complete);
  EXPECT_FALSE(r->partial_coverage);
  EXPECT_EQ(FederatedValues(*r), MergedGroundTruth(sites));
  // Resume-exact round slicing never re-pays a query, and pruning only
  // subtracts: the federation can never cost more than K solo runs.
  EXPECT_LE(r->total_paid, sequential);
  EXPECT_EQ(r->total_paid + r->total_pruned, sequential);
}

TEST(FederatedDiscoveryTest, ResultIndependentOfThreadCount) {
  const std::vector<Table> sites = ThreeSites(200);
  std::vector<FederatedResult> results;
  for (const int threads : {1, 4}) {
    std::vector<std::unique_ptr<interface::TopKInterface>> ifaces;
    std::vector<interface::HiddenDatabase*> backends;
    for (const Table& t : sites) {
      ifaces.push_back(MakeInterface(&t, MakeSumRanking(), 10));
      backends.push_back(ifaces.back().get());
    }
    FederationOptions opts;
    opts.mode = FederationOptions::Mode::kUnion;
    opts.round_budget = 16;
    opts.num_threads = threads;
    auto r = RunFederatedDiscovery(backends, opts);
    ASSERT_TRUE(r.ok()) << r.status();
    results.push_back(std::move(*r));
  }
  EXPECT_EQ(FederatedValues(results[0]), FederatedValues(results[1]));
  ASSERT_EQ(results[0].backends.size(), results[1].backends.size());
  for (size_t i = 0; i < results[0].backends.size(); ++i) {
    EXPECT_EQ(results[0].backends[i].paid_queries,
              results[1].backends[i].paid_queries);
    EXPECT_EQ(results[0].backends[i].pruned_queries,
              results[1].backends[i].pruned_queries);
  }
}

/// Per-backend accounting pinned from the coordinator that encoded and
/// decoded every backend's frontier between rounds and rebuilt the prune
/// snapshot from all candidates each round. Keeping traversals in memory
/// and growing one snapshot must not move a single prune decision.
struct PinnedBackend {
  int64_t paid;
  int64_t pruned;
  int64_t rounds;
  int64_t confirmed;
};

void ExpectPinnedAccounting(const std::vector<Table>& sites,
                            const std::string& algorithm,
                            int64_t round_budget, int64_t rounds,
                            const std::vector<PinnedBackend>& pinned) {
  SCOPED_TRACE(algorithm + " at round_budget " +
               std::to_string(round_budget));
  std::vector<std::unique_ptr<interface::TopKInterface>> ifaces;
  std::vector<interface::HiddenDatabase*> backends;
  for (const Table& t : sites) {
    ifaces.push_back(MakeInterface(&t, MakeSumRanking(), 10));
    backends.push_back(ifaces.back().get());
  }
  FederationOptions opts;
  opts.mode = FederationOptions::Mode::kUnion;
  opts.round_budget = round_budget;
  opts.algorithm = algorithm;
  auto r = RunFederatedDiscovery(backends, opts);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->complete);
  EXPECT_EQ(r->rounds, rounds);
  EXPECT_EQ(FederatedValues(*r), MergedGroundTruth(sites));
  ASSERT_EQ(r->backends.size(), pinned.size());
  for (size_t i = 0; i < pinned.size(); ++i) {
    SCOPED_TRACE("backend " + std::to_string(i));
    EXPECT_EQ(r->backends[i].paid_queries, pinned[i].paid);
    EXPECT_EQ(r->backends[i].pruned_queries, pinned[i].pruned);
    EXPECT_EQ(r->backends[i].rounds, pinned[i].rounds);
    EXPECT_EQ(r->backends[i].confirmed, pinned[i].confirmed);
  }
}

TEST(FederatedDiscoveryTest, RqAccountingIsPinned) {
  const std::vector<Table> sites = ThreeSites(200);
  ExpectPinnedAccounting(sites, "rq", 16, 21,
                         {{107, 1, 21, 134}, {97, 0, 19, 110},
                          {107, 1, 20, 117}});
  ExpectPinnedAccounting(sites, "rq", 1, 311,
                         {{107, 1, 107, 134}, {97, 0, 97, 110},
                          {107, 1, 107, 117}});
  // Larger sites prune more: 35 free answers, each decided against the
  // grown snapshot.
  ExpectPinnedAccounting(ThreeSites(2000), "rq", 16, 133,
                         {{699, 11, 120, 415}, {708, 17, 132, 456},
                          {715, 7, 133, 467}});
}

TEST(FederatedDiscoveryTest, SqAccountingIsPinned) {
  // SQ-DB-SKY pays 437,787 queries over ThreeSites(200): 27,363 rounds at
  // round_budget 16. At round_budget 1 that would be one round per
  // query, so the one-query slicing is pinned on 40 rows per site.
  ExpectPinnedAccounting(ThreeSites(200), "sq", 16, 27363,
                         {{244499, 0, 27363, 134}, {85304, 0, 14218, 110},
                          {107984, 0, 18318, 117}});
  const std::vector<Table> small = ThreeSites(40);
  ExpectPinnedAccounting(small, "sq", 16, 121,
                         {{435, 0, 76, 30}, {387, 0, 77, 33},
                          {1098, 0, 121, 31}});
  ExpectPinnedAccounting(small, "sq", 1, 1920,
                         {{435, 0, 435, 30}, {387, 0, 387, 33},
                          {1098, 0, 1098, 31}});
}

/// Delegating backend that starts failing after `fail_after` queries —
/// a site that goes down mid-federation.
class DyingBackend : public interface::HiddenDatabase {
 public:
  DyingBackend(interface::HiddenDatabase* inner, int64_t fail_after)
      : inner_(inner), fail_after_(fail_after) {}
  const data::Schema& schema() const override { return inner_->schema(); }
  int k() const override { return inner_->k(); }
  common::Result<interface::QueryResult> Execute(
      const interface::Query& q) override {
    if (executed_ >= fail_after_) {
      return common::Status::IOError("backend died");
    }
    ++executed_;
    return inner_->Execute(q);
  }

 private:
  interface::HiddenDatabase* inner_;
  int64_t fail_after_;
  int64_t executed_ = 0;
};

TEST(FederatedDiscoveryTest, DeadBackendDegradesGracefully) {
  const std::vector<Table> sites = ThreeSites(200);
  std::vector<std::unique_ptr<interface::TopKInterface>> ifaces;
  for (const Table& t : sites) {
    ifaces.push_back(MakeInterface(&t, MakeSumRanking(), 10));
  }
  DyingBackend dying(ifaces[1].get(), 12);
  std::vector<interface::HiddenDatabase*> backends = {
      ifaces[0].get(), &dying, ifaces[2].get()};

  FederationOptions opts;
  opts.mode = FederationOptions::Mode::kUnion;
  opts.round_budget = 16;
  auto r = RunFederatedDiscovery(backends, opts);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->partial_coverage);
  EXPECT_FALSE(r->complete);
  ASSERT_EQ(r->backends.size(), 3u);
  EXPECT_TRUE(r->backends[1].failed);
  EXPECT_FALSE(r->backends[1].error.empty());
  EXPECT_TRUE(r->backends[0].complete);
  EXPECT_TRUE(r->backends[2].complete);

  // Anytime guarantee relative to what WAS explored. The dead site's
  // unexplored tail may dominate reported vectors (that is what the
  // partial_coverage flag warns about), but the two complete sites are
  // fully accounted for:
  //  * nothing either complete site holds dominates a reported vector,
  //  * every skyline vector of their union is reported, or was knocked
  //    out by a reported candidate the dead site surfaced in time.
  const std::set<Tuple> alive_truth =
      MergedGroundTruth({sites[0], sites[2]});
  const std::set<Tuple> reported = FederatedValues(*r);
  std::vector<int> attrs(r->ranking_attr_names.size());
  std::iota(attrs.begin(), attrs.end(), 0);
  for (const Tuple& v : reported) {
    for (const Tuple& s : alive_truth) {
      EXPECT_NE(skyline::Compare(s, v, attrs),
                skyline::DomRelation::kDominates)
          << "a complete site's skyline dominates a reported vector";
    }
  }
  for (const Tuple& s : alive_truth) {
    bool covered = reported.count(s) > 0;
    for (auto it = reported.begin(); !covered && it != reported.end();
         ++it) {
      covered = skyline::Compare(*it, s, attrs) ==
                skyline::DomRelation::kDominates;
    }
    EXPECT_TRUE(covered)
        << "complete sites' skyline vector neither reported nor beaten";
  }
}

TEST(FederatedDiscoveryTest, RejectsMismatchedRankingSchemas) {
  Table a(TwoAttrRqSchema());
  ASSERT_TRUE(a.Append({1, 2}).ok());
  auto other_schema = std::move(data::Schema::Create(
                                    {{"x", data::AttributeKind::kRanking,
                                      data::InterfaceType::kRQ, 0, 100},
                                     {"b", data::AttributeKind::kRanking,
                                      data::InterfaceType::kRQ, 0, 100}}))
                          .value();
  Table b(std::move(other_schema));
  ASSERT_TRUE(b.Append({1, 2}).ok());
  auto ia = MakeInterface(&a, MakeSumRanking(), 5);
  auto ib = MakeInterface(&b, MakeSumRanking(), 5);
  FederationOptions opts;
  auto r = RunFederatedDiscovery({ia.get(), ib.get()}, opts);
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

data::Schema KeyedSchema() {
  return std::move(data::Schema::Create(
                       {{"price", data::AttributeKind::kRanking,
                         data::InterfaceType::kRQ, 0, 100},
                        {"stops", data::AttributeKind::kRanking,
                         data::InterfaceType::kRQ, 0, 100},
                        {"key", data::AttributeKind::kFiltering,
                         data::InterfaceType::kFilterEquality, 0, 9}}))
      .value();
}

TEST(FederatedDiscoveryTest, JoinModeInnerJoinsOnSharedKey) {
  // Keys 1..3 on site A, keys 2..4 on site B: only 2 and 3 join.
  Table a(KeyedSchema());
  ASSERT_TRUE(a.Append({10, 10, 1}).ok());
  ASSERT_TRUE(a.Append({20, 5, 2}).ok());
  ASSERT_TRUE(a.Append({5, 20, 3}).ok());
  Table b(KeyedSchema());
  ASSERT_TRUE(b.Append({15, 8, 2}).ok());
  ASSERT_TRUE(b.Append({8, 15, 3}).ok());
  ASSERT_TRUE(b.Append({1, 1, 4}).ok());
  auto ia = MakeInterface(&a, MakeSumRanking(), 5);
  auto ib = MakeInterface(&b, MakeSumRanking(), 5);

  FederationOptions opts;
  opts.mode = FederationOptions::Mode::kJoin;
  opts.join_attr = "key";
  auto r = RunFederatedDiscovery({ia.get(), ib.get()}, opts);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->joined.size(), 2u);
  EXPECT_EQ(r->joined[0].key, 2);
  EXPECT_EQ(r->joined[0].rank_values, Tuple({15, 5}));
  EXPECT_EQ(r->joined[1].key, 3);
  EXPECT_EQ(r->joined[1].rank_values, Tuple({5, 15}));
}

// ---------------------------------------------------------------------------
// Durable sessions: round-barrier checkpoints, resume, backend revival.

/// Delegating backend that records the signature of every query it is
/// actually asked (pruned queries never get here), so resume tests can
/// prove the two lives of a resumed session pay for disjoint queries.
class RecordingBackend : public interface::HiddenDatabase {
 public:
  explicit RecordingBackend(interface::HiddenDatabase* inner)
      : inner_(inner) {}
  const data::Schema& schema() const override { return inner_->schema(); }
  int k() const override { return inner_->k(); }
  common::Result<interface::QueryResult> Execute(
      const interface::Query& q) override {
    signatures_.push_back(q.Signature());
    return inner_->Execute(q);
  }
  const std::vector<std::string>& signatures() const { return signatures_; }

 private:
  interface::HiddenDatabase* inner_;
  std::vector<std::string> signatures_;
};

struct RecordedFleet {
  std::vector<std::unique_ptr<interface::TopKInterface>> ifaces;
  std::vector<std::unique_ptr<RecordingBackend>> recorders;
  std::vector<interface::HiddenDatabase*> backends;
};

RecordedFleet MakeFleet(const std::vector<Table>& sites) {
  RecordedFleet f;
  for (const Table& t : sites) {
    f.ifaces.push_back(MakeInterface(&t, MakeSumRanking(), 10));
    f.recorders.push_back(
        std::make_unique<RecordingBackend>(f.ifaces.back().get()));
    f.backends.push_back(f.recorders.back().get());
  }
  return f;
}

/// The durable-session contract, for whichever driver `algorithm`
/// resolves to on `sites`:
///  * every round barrier's FederationSessionState — embedded
///    DiscoveryRun and frontier codecs included — round-trips through
///    Encode/Decode byte-identically,
///  * a fresh coordinator resumed from a barrier finishes with the
///    uninterrupted run's exact skyline, paid totals, and round count,
///  * the resumed life never re-pays a query the first life paid for.
void CheckDurableResume(const std::vector<Table>& sites,
                        const std::string& algorithm) {
  FederationOptions base;
  base.mode = FederationOptions::Mode::kUnion;
  base.round_budget = 16;
  base.algorithm = algorithm;

  // Reference: one uninterrupted run.
  RecordedFleet ref_fleet = MakeFleet(sites);
  auto ref = RunFederatedDiscovery(ref_fleet.backends, base);
  ASSERT_TRUE(ref.ok()) << ref.status();
  ASSERT_TRUE(ref->complete);

  // First life: identical run stopped after three rounds, every barrier
  // captured.
  std::vector<recovery::FederationSessionState> barriers;
  RecordedFleet first = MakeFleet(sites);
  FederationOptions stopped_opts = base;
  stopped_opts.max_rounds = 3;
  stopped_opts.on_round_checkpoint =
      [&barriers](const recovery::FederationSessionState& s) {
        barriers.push_back(s);
        return common::Status::OK();
      };
  auto stopped = RunFederatedDiscovery(first.backends, stopped_opts);
  ASSERT_TRUE(stopped.ok()) << stopped.status();
  ASSERT_EQ(barriers.size(), 3u);

  // Codec round trip at every round boundary. The frontier blob is the
  // part a corrupted byte would silently derail, so it is compared
  // explicitly on top of whole-state re-encode equality.
  bool saw_paused_frontier = false;
  for (const auto& s : barriers) {
    const std::string blob = recovery::EncodeFederationState(s);
    auto decoded = recovery::DecodeFederationState(blob);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(recovery::EncodeFederationState(*decoded), blob);
    ASSERT_EQ(decoded->backends.size(), s.backends.size());
    for (size_t i = 0; i < s.backends.size(); ++i) {
      EXPECT_EQ(decoded->backends[i].has_resume, s.backends[i].has_resume);
      EXPECT_EQ(decoded->backends[i].frontier, s.backends[i].frontier);
      EXPECT_EQ(decoded->backends[i].run_state, s.backends[i].run_state);
      saw_paused_frontier |= s.backends[i].has_resume;
    }
  }
  // Round slicing must actually have paused someone mid-traversal, or
  // this test is not exercising the frontier codec at all.
  EXPECT_TRUE(saw_paused_frontier);

  // Second life: fresh backends resume from the last barrier — through
  // the decoded copy, so the test proves the PERSISTED form carries
  // everything the coordinator needs.
  auto restored =
      recovery::DecodeFederationState(
          recovery::EncodeFederationState(barriers.back()));
  ASSERT_TRUE(restored.ok()) << restored.status();
  RecordedFleet second = MakeFleet(sites);
  FederationOptions resume_opts = base;
  resume_opts.resume_state = &*restored;
  auto resumed = RunFederatedDiscovery(second.backends, resume_opts);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(resumed->complete);
  EXPECT_FALSE(resumed->partial_coverage);
  EXPECT_EQ(FederatedValues(*resumed), FederatedValues(*ref));
  // Accounting is cumulative across lives and must land exactly on the
  // uninterrupted totals: nothing lost, nothing double-counted.
  EXPECT_EQ(resumed->total_paid, ref->total_paid);
  EXPECT_EQ(resumed->total_pruned, ref->total_pruned);
  EXPECT_EQ(resumed->rounds, ref->rounds);

  // Zero replayed backend queries: the two lives' paid queries are
  // disjoint per backend.
  for (size_t b = 0; b < sites.size(); ++b) {
    const auto& life1 = first.recorders[b]->signatures();
    const std::set<std::string> paid_once(life1.begin(), life1.end());
    for (const std::string& sig : second.recorders[b]->signatures()) {
      EXPECT_EQ(paid_once.count(sig), 0u)
          << "backend " << b << " re-paid a first-life query on resume";
    }
  }
}

TEST(FederatedDurabilityTest, RqResumeReplaysNothingAndMatches) {
  // Blue Nile sites are all-RQ, so "auto" resolves the RQ driver: this
  // exercises the RQ stack frontier codec at round boundaries.
  CheckDurableResume(ThreeSites(200), "auto");
}

TEST(FederatedDurabilityTest, SqResumeReplaysNothingAndMatches) {
  // SQ-interface sites force the SQ driver and its BFS queue codec.
  std::vector<Table> sites;
  for (int s = 21; s <= 23; ++s) {
    dataset::SyntheticOptions o;
    o.num_tuples = 300;
    o.num_attributes = 3;
    o.domain_size = 8;
    o.distribution = dataset::Distribution::kAntiCorrelated;
    o.iface = data::InterfaceType::kSQ;
    o.seed = static_cast<uint64_t>(s);
    sites.push_back(std::move(dataset::GenerateSynthetic(o)).value());
  }
  CheckDurableResume(sites, "sq");
}

TEST(FederatedDurabilityTest, CheckpointFailureAbortsRun) {
  // A session that cannot persist must not pretend to be durable: the
  // first failed round checkpoint surfaces as the run's own error.
  const std::vector<Table> sites = ThreeSites(100);
  RecordedFleet fleet = MakeFleet(sites);
  FederationOptions opts;
  opts.mode = FederationOptions::Mode::kUnion;
  opts.round_budget = 16;
  opts.on_round_checkpoint =
      [](const recovery::FederationSessionState&) {
        return common::Status::IOError("disk full");
      };
  auto r = RunFederatedDiscovery(fleet.backends, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
}

TEST(FederatedDurabilityTest, ResumeValidatesBackendSet) {
  // A checkpoint from a three-backend session must not be adopted by a
  // coordinator connected to two.
  const std::vector<Table> sites = ThreeSites(100);
  std::vector<recovery::FederationSessionState> barriers;
  RecordedFleet first = MakeFleet(sites);
  FederationOptions opts;
  opts.mode = FederationOptions::Mode::kUnion;
  opts.round_budget = 16;
  opts.max_rounds = 1;
  opts.on_round_checkpoint =
      [&barriers](const recovery::FederationSessionState& s) {
        barriers.push_back(s);
        return common::Status::OK();
      };
  ASSERT_TRUE(RunFederatedDiscovery(first.backends, opts).ok());
  ASSERT_FALSE(barriers.empty());

  const std::vector<Table> fewer = {sites[0], sites[1]};
  RecordedFleet second = MakeFleet(fewer);
  FederationOptions resume_opts;
  resume_opts.mode = FederationOptions::Mode::kUnion;
  resume_opts.round_budget = 16;
  resume_opts.resume_state = &barriers.back();
  auto r = RunFederatedDiscovery(second.backends, resume_opts);
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

/// Delegating backend that is dark for a window of Execute calls — the
/// failed attempts count too — then answers again: a site rebooting
/// mid-federation. Counting calls instead of wall clock keeps the
/// kill/revive schedule exactly reproducible.
class BlackoutBackend : public interface::HiddenDatabase {
 public:
  BlackoutBackend(interface::HiddenDatabase* inner, int64_t dark_from,
                  int64_t dark_until)
      : inner_(inner), dark_from_(dark_from), dark_until_(dark_until) {}
  const data::Schema& schema() const override { return inner_->schema(); }
  int k() const override { return inner_->k(); }
  common::Result<interface::QueryResult> Execute(
      const interface::Query& q) override {
    const int64_t call = calls_++;
    if (call >= dark_from_ && call < dark_until_) {
      return common::Status::Unavailable("backend dark");
    }
    return inner_->Execute(q);
  }

 private:
  interface::HiddenDatabase* inner_;
  int64_t dark_from_;
  int64_t dark_until_;
  int64_t calls_ = 0;
};

TEST(FederatedDiscoveryTest, RevivedBackendRestoresFullCoverage) {
  const std::vector<Table> sites = ThreeSites(200);
  std::vector<std::unique_ptr<interface::TopKInterface>> ifaces;
  for (const Table& t : sites) {
    ifaces.push_back(MakeInterface(&t, MakeSumRanking(), 10));
  }
  // Dark for calls [12, 20): the first failure degrades the backend, the
  // next 7 re-probes fail into backoff, the 8th probe answers again.
  BlackoutBackend flaky(ifaces[1].get(), 12, 20);
  std::vector<interface::HiddenDatabase*> backends = {
      ifaces[0].get(), &flaky, ifaces[2].get()};

  FederationOptions opts;
  opts.mode = FederationOptions::Mode::kUnion;
  opts.round_budget = 16;
  opts.max_probe_attempts = 100;
  opts.probe_backoff_rounds = 1;
  auto r = RunFederatedDiscovery(backends, opts);
  ASSERT_TRUE(r.ok()) << r.status();

  // Reintegration upgrades coverage back to FULL, and the result is the
  // no-fault result — the outage cost retries, not answers.
  EXPECT_TRUE(r->complete);
  EXPECT_FALSE(r->partial_coverage);
  ASSERT_EQ(r->backends.size(), 3u);
  EXPECT_FALSE(r->backends[1].failed);
  EXPECT_TRUE(r->backends[1].complete);
  EXPECT_EQ(r->backends[1].health, federation::BackendHealth::kHealthy);
  EXPECT_GE(r->backends[1].recoveries, 1);
  EXPECT_EQ(FederatedValues(*r), MergedGroundTruth(sites));
}

TEST(FederatedDiscoveryTest, RevivedBackendPaysExactlyItsSoloCost) {
  const std::vector<Table> sites = ThreeSites(200);
  std::vector<int64_t> solo;
  std::vector<std::unique_ptr<interface::TopKInterface>> ifaces;
  for (const Table& t : sites) {
    auto alone = MakeInterface(&t, MakeSumRanking(), 10);
    auto r = core::RqDbSky(alone.get());
    ASSERT_TRUE(r.ok()) << r.status();
    solo.push_back(r->query_cost);
    ifaces.push_back(MakeInterface(&t, MakeSumRanking(), 10));
  }
  // At round_budget 16 backend 1 pays 5 queries in each of its first two
  // rounds and 6 in the third (calls 10..15), so a dark window opening at
  // call 13 tears the third round after three answered queries.
  BlackoutBackend flaky(ifaces[1].get(), 13, 17);
  std::vector<interface::HiddenDatabase*> backends = {
      ifaces[0].get(), &flaky, ifaces[2].get()};

  FederationOptions opts;
  opts.mode = FederationOptions::Mode::kUnion;
  opts.round_budget = 16;
  opts.max_probe_attempts = 100;
  opts.probe_backoff_rounds = 1;
  auto r = RunFederatedDiscovery(backends, opts);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->complete);
  EXPECT_FALSE(r->partial_coverage);
  EXPECT_EQ(FederatedValues(*r), MergedGroundTruth(sites));
  ASSERT_EQ(r->backends.size(), 3u);
  EXPECT_GE(r->backends[1].recoveries, 1);
  // The revived backend resumes at the query that failed: the torn
  // round's three answers are kept, never paid for again, so every
  // backend — revived or not — issues exactly its solo traversal.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r->backends[i].paid_queries + r->backends[i].pruned_queries,
              solo[i])
        << "backend " << i;
  }
}

TEST(FederatedDurabilityTest, DegradedBackendResumesAtFailedQuery) {
  // A barrier taken while a backend is DEGRADED persists its traversal
  // stopped at the query that failed. A coordinator resumed from that
  // barrier (against a backend that is back up) keeps the torn round's
  // answers and lands on the same solo cost as an uninterrupted run.
  const std::vector<Table> sites = ThreeSites(200);
  int64_t solo = 0;
  {
    auto alone = MakeInterface(&sites[1], MakeSumRanking(), 10);
    auto r = core::RqDbSky(alone.get());
    ASSERT_TRUE(r.ok()) << r.status();
    solo = r->query_cost;
  }
  FederationOptions base;
  base.mode = FederationOptions::Mode::kUnion;
  base.round_budget = 16;
  base.max_probe_attempts = 100;
  base.probe_backoff_rounds = 1;

  std::vector<std::unique_ptr<interface::TopKInterface>> ifaces;
  for (const Table& t : sites) {
    ifaces.push_back(MakeInterface(&t, MakeSumRanking(), 10));
  }
  BlackoutBackend flaky(ifaces[1].get(), 13, 1000);
  std::optional<recovery::FederationSessionState> last;
  FederationOptions first = base;
  first.max_rounds = 4;
  first.on_round_checkpoint =
      [&last](const recovery::FederationSessionState& s) {
        last = s;
        return common::Status::OK();
      };
  auto stopped = RunFederatedDiscovery(
      {ifaces[0].get(), &flaky, ifaces[2].get()}, first);
  ASSERT_TRUE(stopped.ok()) << stopped.status();
  ASSERT_TRUE(last.has_value());
  ASSERT_EQ(last->backends[1].health,
            static_cast<uint8_t>(federation::BackendHealth::kDegraded));
  EXPECT_TRUE(last->backends[1].has_resume);

  auto restored = recovery::DecodeFederationState(
      recovery::EncodeFederationState(*last));
  ASSERT_TRUE(restored.ok()) << restored.status();
  RecordedFleet second = MakeFleet(sites);
  FederationOptions resume = base;
  resume.resume_state = &*restored;
  auto resumed = RunFederatedDiscovery(second.backends, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(resumed->complete);
  EXPECT_FALSE(resumed->partial_coverage);
  EXPECT_EQ(FederatedValues(*resumed), MergedGroundTruth(sites));
  EXPECT_GE(resumed->backends[1].recoveries, 1);
  EXPECT_EQ(resumed->backends[1].paid_queries +
                resumed->backends[1].pruned_queries,
            solo);
}

TEST(FederatedDiscoveryTest, ProbeBudgetExhaustionStillDegradesGracefully) {
  // A backend that never comes back must burn its probe budget and land
  // DEAD — the pre-health-machine partial-coverage contract.
  const std::vector<Table> sites = ThreeSites(100);
  std::vector<std::unique_ptr<interface::TopKInterface>> ifaces;
  for (const Table& t : sites) {
    ifaces.push_back(MakeInterface(&t, MakeSumRanking(), 10));
  }
  BlackoutBackend dead(ifaces[1].get(), 8,
                       std::numeric_limits<int64_t>::max());
  std::vector<interface::HiddenDatabase*> backends = {
      ifaces[0].get(), &dead, ifaces[2].get()};

  FederationOptions opts;
  opts.mode = FederationOptions::Mode::kUnion;
  opts.round_budget = 16;
  opts.max_probe_attempts = 2;
  opts.probe_backoff_rounds = 1;
  auto r = RunFederatedDiscovery(backends, opts);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->partial_coverage);
  EXPECT_FALSE(r->complete);
  ASSERT_EQ(r->backends.size(), 3u);
  EXPECT_TRUE(r->backends[1].failed);
  EXPECT_EQ(r->backends[1].health, federation::BackendHealth::kDead);
  EXPECT_EQ(r->backends[1].recoveries, 0);
  EXPECT_TRUE(r->backends[0].complete);
  EXPECT_TRUE(r->backends[2].complete);
}

TEST(FederatedDiscoveryTest, JoinNeedsJoinAttr) {
  Table a(KeyedSchema());
  ASSERT_TRUE(a.Append({10, 10, 1}).ok());
  auto ia = MakeInterface(&a, MakeSumRanking(), 5);
  FederationOptions opts;
  opts.mode = FederationOptions::Mode::kJoin;
  auto r = RunFederatedDiscovery({ia.get()}, opts);
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

}  // namespace
}  // namespace hdsky
