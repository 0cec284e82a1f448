// Unit tests for the core/discovery.h layer (SkylineCollector,
// DiscoveryRun, ResumableDiscovery) and for the algorithm options added on
// top of the paper (duplicate-node skipping, impossible-child pruning):
// behaviours not already pinned down by the end-to-end algorithm suites.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/discovery.h"
#include "core/rq_db_sky.h"
#include "core/sq_db_sky.h"
#include "dataset/synthetic.h"
#include "tests/test_util.h"

namespace hdsky {
namespace core {
namespace {

using data::Tuple;
using interface::MakeSumRanking;
using interface::Query;
using testutil::ExpectExactSkyline;
using testutil::MakeInterface;

TEST(SkylineCollectorTest, ObserveConfirmsUndominated) {
  SkylineCollector c({0, 1});
  EXPECT_TRUE(c.Observe(1, {5, 5}));
  EXPECT_TRUE(c.Observe(2, {3, 8}));   // incomparable
  EXPECT_FALSE(c.Observe(3, {6, 6}));  // dominated by (5,5)
  EXPECT_EQ(c.size(), 2);
}

TEST(SkylineCollectorTest, ObserveMemoizesIds) {
  SkylineCollector c({0, 1});
  EXPECT_TRUE(c.Observe(1, {5, 5}));
  // Same id again: already classified, not a new confirmation.
  EXPECT_FALSE(c.Observe(1, {5, 5}));
  EXPECT_EQ(c.size(), 1);
}

TEST(SkylineCollectorTest, ValueDuplicatesIgnored) {
  SkylineCollector c({0, 1});
  EXPECT_TRUE(c.Observe(1, {5, 5}));
  EXPECT_FALSE(c.Observe(2, {5, 5}));  // equal values, different id
  EXPECT_EQ(c.size(), 1);
}

TEST(SkylineCollectorTest, AddConfirmedBypassesDominance) {
  SkylineCollector c({0, 1});
  c.AddConfirmed(1, {5, 5});
  // Geometric proofs are trusted even if a collected tuple dominates.
  EXPECT_TRUE(c.AddConfirmed(2, {6, 6}));
  EXPECT_EQ(c.size(), 2);
  EXPECT_FALSE(c.AddConfirmed(2, {6, 6}));  // id dedup still applies
}

TEST(SkylineCollectorTest, DominationQueries) {
  SkylineCollector c({0, 1});
  c.AddConfirmed(1, {5, 5});
  EXPECT_TRUE(c.IsDominated({6, 6}));
  EXPECT_FALSE(c.IsDominated({5, 5}));
  EXPECT_TRUE(c.IsDominatedOrDuplicate({5, 5}));
  EXPECT_FALSE(c.IsDominatedOrDuplicate({4, 9}));
}

TEST(QuerySignatureTest, EqualIffSamePredicates) {
  Query a(3), b(3);
  a.AddAtMost(0, 5).AddAtLeast(2, 1);
  b.AddAtLeast(2, 1).AddAtMost(0, 5);  // order-insensitive
  EXPECT_EQ(a.Signature(), b.Signature());
  b.AddAtMost(1, 9);
  EXPECT_NE(a.Signature(), b.Signature());
  // Different bounds differ.
  Query c(3), d(3);
  c.AddAtMost(0, 5);
  d.AddAtMost(0, 6);
  EXPECT_NE(c.Signature(), d.Signature());
}

TEST(DiscoveryRunTest, MaxQueriesStopsExecution) {
  dataset::SyntheticOptions o;
  o.num_tuples = 100;
  o.num_attributes = 2;
  o.seed = 5;
  const data::Table t = std::move(dataset::GenerateSynthetic(o)).value();
  auto iface = MakeInterface(&t, MakeSumRanking(), 1);
  DiscoveryOptions opts;
  opts.max_queries = 2;
  DiscoveryRun run(iface.get(), opts);
  EXPECT_TRUE(run.Execute(run.MakeBaseQuery()).ok());
  EXPECT_TRUE(run.Execute(run.MakeBaseQuery()).ok());
  auto third = run.Execute(run.MakeBaseQuery());
  EXPECT_TRUE(third.status().IsResourceExhausted());
  EXPECT_TRUE(run.exhausted());
  EXPECT_EQ(run.queries_issued(), 2);
  const DiscoveryResult result = run.Finish();
  EXPECT_FALSE(result.complete);
}

TEST(DiscoveryRunTest, FinishReportsSortedIdsAndTrace) {
  dataset::SyntheticOptions o;
  o.num_tuples = 50;
  o.num_attributes = 2;
  o.seed = 6;
  const data::Table t = std::move(dataset::GenerateSynthetic(o)).value();
  auto iface = MakeInterface(&t, MakeSumRanking(), 1);
  DiscoveryOptions opts;
  DiscoveryRun run(iface.get(), opts);
  run.AddConfirmed(9, t.GetTuple(9));
  run.AddConfirmed(3, t.GetTuple(3));
  const DiscoveryResult result = run.Finish();
  EXPECT_EQ(result.skyline_ids, (std::vector<data::TupleId>{3, 9}));
  EXPECT_EQ(result.skyline[0], t.GetTuple(3));
  testutil::ExpectWellFormedTrace(result);
}

TEST(DuplicateNodeSkipTest, SameResultFewerOrEqualQueries) {
  dataset::SyntheticOptions o;
  o.num_tuples = 500;
  o.num_attributes = 3;
  o.domain_size = 8;  // tiny domain: duplicate regions are common
  o.iface = data::InterfaceType::kRQ;
  o.seed = 7;
  const data::Table t = std::move(dataset::GenerateSynthetic(o)).value();

  auto iface_a = MakeInterface(&t, MakeSumRanking(), 1);
  SqDbSkyOptions plain;
  auto base = SqDbSky(iface_a.get(), plain);
  ASSERT_TRUE(base.ok());
  ExpectExactSkyline(*base, t);

  auto iface_b = MakeInterface(&t, MakeSumRanking(), 1);
  SqDbSkyOptions dedup;
  dedup.skip_duplicate_nodes = true;
  auto skipped = SqDbSky(iface_b.get(), dedup);
  ASSERT_TRUE(skipped.ok());
  ExpectExactSkyline(*skipped, t);
  EXPECT_LE(skipped->query_cost, base->query_cost);

  auto iface_c = MakeInterface(&t, MakeSumRanking(), 1);
  RqDbSkyOptions rq_dedup;
  rq_dedup.skip_duplicate_nodes = true;
  auto rq = RqDbSky(iface_c.get(), rq_dedup);
  ASSERT_TRUE(rq.ok());
  ExpectExactSkyline(*rq, t);
}

TEST(ImpossibleChildTest, IssuingThemMatchesCostModelAccounting) {
  // With pruning off, a single-tuple database costs exactly 1 + m
  // queries (the paper's C_1 = m + 1); with pruning on, just 1.
  auto schema = std::move(data::Schema::Create(
      {{"a", data::AttributeKind::kRanking, data::InterfaceType::kSQ, 0,
        9},
       {"b", data::AttributeKind::kRanking, data::InterfaceType::kSQ, 0,
        9},
       {"c", data::AttributeKind::kRanking, data::InterfaceType::kSQ, 0,
        9}})).value();
  data::Table t(std::move(schema));
  ASSERT_TRUE(t.Append({0, 0, 0}).ok());  // best corner: all children
                                          // are domain-impossible
  {
    auto iface = MakeInterface(&t, MakeSumRanking(), 1);
    SqDbSkyOptions opts;
    opts.skip_impossible_children = false;
    auto r = SqDbSky(iface.get(), opts);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->query_cost, 4);  // 1 root + m = 3 empty branches
  }
  {
    auto iface = MakeInterface(&t, MakeSumRanking(), 1);
    auto r = SqDbSky(iface.get());  // default: pruning on
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->query_cost, 1);
  }
}

TEST(ImpossibleChildTest, NonCornerTupleStillBranches) {
  auto schema = std::move(data::Schema::Create(
      {{"a", data::AttributeKind::kRanking, data::InterfaceType::kSQ, 0,
        9},
       {"b", data::AttributeKind::kRanking, data::InterfaceType::kSQ, 0,
        9}})).value();
  data::Table t(std::move(schema));
  ASSERT_TRUE(t.Append({3, 4}).ok());
  auto iface = MakeInterface(&t, MakeSumRanking(), 1);
  auto r = SqDbSky(iface.get());
  ASSERT_TRUE(r.ok());
  // Root + two possible (but data-empty) children.
  EXPECT_EQ(r->query_cost, 3);
  EXPECT_EQ(r->skyline.size(), 1u);
}

// ---------------------------------------------------------------------------
// ResumableDiscovery: a traversal paused and continued in memory, or
// rebuilt from its checkpoint blobs at every pause, issues exactly the
// queries of an uninterrupted run.

/// Delegating interface that answers `allowance` queries per slice, then
/// refuses with ResourceExhausted until re-armed (a federation round
/// allowance in miniature). Records every answered query in order.
class SlicedDatabase : public interface::HiddenDatabase {
 public:
  explicit SlicedDatabase(interface::HiddenDatabase* inner) : inner_(inner) {}
  const data::Schema& schema() const override { return inner_->schema(); }
  int k() const override { return inner_->k(); }
  /// Grants `allowance` answers (< 0 = unlimited).
  void Rearm(int64_t allowance) { remaining_ = allowance; }
  common::Result<interface::QueryResult> Execute(const Query& q) override {
    if (remaining_ == 0) return common::Status::ResourceExhausted("sliced");
    auto r = inner_->Execute(q);
    if (r.ok()) {
      if (remaining_ > 0) --remaining_;
      issued_.push_back(q.Signature());
    }
    return r;
  }
  const std::vector<std::string>& issued() const { return issued_; }

 private:
  interface::HiddenDatabase* inner_;
  int64_t remaining_ = -1;
  std::vector<std::string> issued_;
};

struct Sliced {
  std::vector<std::string> issued;
  DiscoveryResult result;
};

using MakeDiscovery =
    std::function<common::Result<std::unique_ptr<ResumableDiscovery>>(
        interface::HiddenDatabase*, const DiscoveryOptions&)>;

/// Runs `make`'s traversal in slices of `slice` answers (0 = one
/// uninterrupted Continue). With `via_blobs`, every pause saves the run
/// state and frontier and a fresh traversal restored from them continues.
Sliced RunSliced(const data::Table& t, const MakeDiscovery& make,
                 int64_t slice, bool via_blobs) {
  auto iface = MakeInterface(&t, MakeSumRanking(), 4);
  SlicedDatabase db(iface.get());
  auto d = make(&db, DiscoveryOptions{});
  EXPECT_TRUE(d.ok()) << d.status();
  std::unique_ptr<ResumableDiscovery> discovery = std::move(d).value();
  int pauses = 0;
  for (;;) {
    db.Rearm(slice > 0 ? slice : -1);
    const common::Status s = discovery->Continue();
    if (s.ok()) break;
    EXPECT_TRUE(s.IsResourceExhausted()) << s;
    EXPECT_TRUE(discovery->run().exhausted());
    ++pauses;
    if (!via_blobs) continue;
    DiscoveryOptions resume;
    std::string run_state, frontier;
    discovery->run().SaveState(&run_state);
    discovery->SaveFrontier(&frontier);
    resume.resume_run_state = run_state;
    resume.resume_frontier = frontier;
    auto fresh = make(&db, resume);
    EXPECT_TRUE(fresh.ok()) << fresh.status();
    discovery = std::move(fresh).value();
  }
  if (slice > 0) {
    EXPECT_GT(pauses, 1);
  }
  return {db.issued(), discovery->run().Finish()};
}

void ExpectSameAsUninterrupted(const data::Table& t,
                               const MakeDiscovery& make) {
  const Sliced reference = RunSliced(t, make, 0, false);
  ASSERT_GT(reference.issued.size(), 10u);
  EXPECT_TRUE(reference.result.complete);
  for (const int64_t slice : {1, 2, 3}) {
    for (const bool via_blobs : {false, true}) {
      SCOPED_TRACE("slice " + std::to_string(slice) +
                   (via_blobs ? " via blobs" : " in memory"));
      const Sliced run = RunSliced(t, make, slice, via_blobs);
      EXPECT_EQ(run.issued, reference.issued);
      EXPECT_TRUE(run.result.complete);
      EXPECT_EQ(run.result.query_cost, reference.result.query_cost);
      EXPECT_EQ(run.result.skyline_ids, reference.result.skyline_ids);
      EXPECT_EQ(run.result.skyline, reference.result.skyline);
      ASSERT_EQ(run.result.trace.size(), reference.result.trace.size());
      for (size_t i = 0; i < run.result.trace.size(); ++i) {
        EXPECT_EQ(run.result.trace[i].queries_issued,
                  reference.result.trace[i].queries_issued);
        EXPECT_EQ(run.result.trace[i].skyline_discovered,
                  reference.result.trace[i].skyline_discovered);
      }
    }
  }
}

data::Table ResumeTable() {
  dataset::SyntheticOptions o;
  o.num_tuples = 400;
  o.num_attributes = 3;
  o.domain_size = 10;  // small domain: duplicate regions occur
  o.distribution = dataset::Distribution::kAntiCorrelated;
  o.iface = data::InterfaceType::kRQ;
  o.seed = 17;
  return std::move(dataset::GenerateSynthetic(o)).value();
}

TEST(ResumableDiscoveryTest, RqPausedRunsMatchUninterrupted) {
  const data::Table t = ResumeTable();
  for (const bool dedup : {false, true}) {
    SCOPED_TRACE(dedup ? "skip_duplicate_nodes" : "plain");
    ExpectSameAsUninterrupted(
        t, [dedup](interface::HiddenDatabase* db, const DiscoveryOptions& c) {
          RqDbSkyOptions o;
          o.common = c;
          o.skip_duplicate_nodes = dedup;
          return MakeRqDbSky(db, o);
        });
  }
}

TEST(ResumableDiscoveryTest, SqPausedRunsMatchUninterrupted) {
  const data::Table t = ResumeTable();
  for (const bool dedup : {false, true}) {
    SCOPED_TRACE(dedup ? "skip_duplicate_nodes" : "plain");
    ExpectSameAsUninterrupted(
        t, [dedup](interface::HiddenDatabase* db, const DiscoveryOptions& c) {
          SqDbSkyOptions o;
          o.common = c;
          o.skip_duplicate_nodes = dedup;
          return MakeSqDbSky(db, o);
        });
  }
}

}  // namespace
}  // namespace core
}  // namespace hdsky
