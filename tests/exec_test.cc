// Differential tests of the k-d leaf walk behind TopKInterface.
//
// Every static-ranking query runs one best-first walk over k-d leaves
// that come from one of three sources: the in-memory leaves TopKInterface
// builds, and a packed format-v3 file read through an mmap or a pread
// buffer pool. These tests drive all three with the same randomized query
// streams (NULL values, empty intervals, point predicates, out-of-domain
// bounds) and require answers bit-identical to a naive row-at-a-time
// rank-order scan that lives in the test, plus identical AccessStats.
// They also pin the build: the in-memory tree is the tree the file
// stores, and a range no dimension splits is halved by rank.

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "data/kd_tree.h"
#include "data/paged_table.h"
#include "data/schema.h"
#include "data/table.h"
#include "dataset/pack.h"
#include "dataset/synthetic.h"
#include "interface/exec/kernels.h"
#include "interface/ranking.h"
#include "interface/top_k_interface.h"
#include "tests/test_util.h"

namespace {

using namespace hdsky;
using interface::AccessStats;
using interface::Query;
using interface::QueryResult;
using interface::TopKInterface;
using interface::TopKOptions;

data::Table SyntheticTable(int64_t n, int m, int64_t domain,
                           dataset::Distribution dist, uint64_t seed) {
  dataset::SyntheticOptions o;
  o.num_tuples = n;
  o.num_attributes = m;
  o.domain_size = domain;
  o.distribution = dist;
  o.seed = seed;
  auto r = dataset::GenerateSynthetic(o);
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).value();
}

/// A table where a fraction of cells is NULL — the kernels must exclude
/// NULL from every constrained attribute exactly like Interval::Contains
/// does.
data::Table NullLacedTable(int64_t n, int m, data::Value domain_max,
                           double null_frac, uint64_t seed) {
  std::vector<data::AttributeSpec> specs(static_cast<size_t>(m));
  for (int a = 0; a < m; ++a) {
    specs[static_cast<size_t>(a)].name = "A" + std::to_string(a);
    specs[static_cast<size_t>(a)].domain_min = 0;
    specs[static_cast<size_t>(a)].domain_max = domain_max;
  }
  auto schema = data::Schema::Create(std::move(specs));
  EXPECT_TRUE(schema.ok()) << schema.status();
  data::Table t(std::move(schema).value());
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<data::Value> val(0, domain_max);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (int64_t r = 0; r < n; ++r) {
    data::Tuple tup(static_cast<size_t>(m));
    for (int a = 0; a < m; ++a) {
      tup[static_cast<size_t>(a)] =
          coin(rng) < null_frac ? data::kNullValue : val(rng);
    }
    EXPECT_TRUE(t.Append(tup).ok());
  }
  return t;
}

/// A table packed under the sum ranking into a temporary file, which is
/// removed with the object.
class PackedFile {
 public:
  explicit PackedFile(const data::Table& table) {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "hdsky_exec.XXXXXX")
                           .string();
    EXPECT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
    path_ = dir_ + "/t.hdb";
    auto rows = dataset::PackTable(table, interface::MakeSumRanking(),
                                   path_, data::BlockFileOptions{});
    EXPECT_TRUE(rows.ok()) << rows.status();
  }
  ~PackedFile() { std::filesystem::remove_all(dir_); }

  const std::string& path() const { return path_; }

 private:
  std::string dir_;
  std::string path_;
};

/// The three leaf sources over one table, each behind a TopKInterface.
/// The pread pool holds a few pages, so its walk evicts as it goes.
struct LeafSources {
  LeafSources(const data::Table& table, int k) : file(table) {
    TopKOptions o;
    o.k = k;
    auto mem = TopKInterface::Create(&table, interface::MakeSumRanking(), o);
    EXPECT_TRUE(mem.ok()) << mem.status();
    ifaces.push_back(std::move(mem).value());
    for (const auto& [kind, pool] :
         {std::pair{data::ReadPathKind::kMmap, size_t{256} << 20},
          std::pair{data::ReadPathKind::kPread, size_t{32} << 10}}) {
      data::PagedTableOptions popts;
      popts.read_path = kind;
      popts.buffer_pool_bytes = pool;
      auto paged = data::PagedTable::Open(file.path(), popts);
      EXPECT_TRUE(paged.ok()) << paged.status();
      auto iface = TopKInterface::CreatePaged(paged->get(), o);
      EXPECT_TRUE(iface.ok()) << iface.status();
      tables.push_back(std::move(paged).value());
      ifaces.push_back(std::move(iface).value());
    }
  }

  PackedFile file;
  std::vector<std::unique_ptr<data::PagedTable>> tables;
  std::vector<std::unique_ptr<TopKInterface>> ifaces;
};

/// Random conjunctive query mixing broad, selective, point, inverted
/// (empty), and out-of-domain predicates. All attributes are RQ, so
/// every generated query is interface-legal.
Query RandomQuery(std::mt19937_64& rng, const data::Schema& schema) {
  Query q(schema.num_attributes());
  std::uniform_int_distribution<int> kind(0, 9);
  for (int a = 0; a < schema.num_attributes(); ++a) {
    const data::AttributeSpec& spec = schema.attribute(a);
    std::uniform_int_distribution<data::Value> val(spec.domain_min - 3,
                                                   spec.domain_max + 3);
    switch (kind(rng)) {
      case 0:
      case 1:
        q.AddAtMost(a, val(rng));
        break;
      case 2:
        q.AddAtLeast(a, val(rng));
        break;
      case 3:  // two-ended; inverted about half the time -> empty
        q.AddAtLeast(a, val(rng)).AddAtMost(a, val(rng));
        break;
      case 4:
        q.AddEquals(a, val(rng));
        break;
      case 5:  // wholly out of domain
        q.AddAtLeast(a, spec.domain_max + 10);
        break;
      case 6:
        q.AddGreaterThan(a, val(rng));
        break;
      default:
        break;  // unconstrained
    }
  }
  return q;
}

/// Handcrafted edge cases over a schema with domains [0, D].
std::vector<Query> EdgeQueries(const data::Schema& schema) {
  const int m = schema.num_attributes();
  const data::Value dmax = schema.attribute(0).domain_max;
  std::vector<Query> qs;
  qs.push_back(Query(m));                                 // SELECT *
  qs.push_back(Query(m).AddAtLeast(0, 0));                // full domain
  qs.push_back(Query(m).AddAtLeast(0, 5).AddAtMost(0, 4));  // inverted
  qs.push_back(Query(m).AddEquals(0, 0));                 // point at min
  qs.push_back(Query(m).AddEquals(0, dmax));              // point at max
  qs.push_back(Query(m).AddEquals(0, dmax + 50));         // out of domain
  qs.push_back(Query(m).AddAtMost(0, -7));                // out of domain
  Query all(m);  // every attribute constrained
  for (int a = 0; a < m; ++a) all.AddAtMost(a, dmax / 2);
  qs.push_back(all);
  return qs;
}

void ExpectSameStats(const AccessStats& a, const AccessStats& b,
                     const std::string& label) {
  EXPECT_EQ(a.queries_issued, b.queries_issued) << label;
  EXPECT_EQ(a.tuples_returned, b.tuples_returned) << label;
  EXPECT_EQ(a.overflowed_queries, b.overflowed_queries) << label;
  EXPECT_EQ(a.empty_queries, b.empty_queries) << label;
  EXPECT_EQ(a.rejected_queries, b.rejected_queries) << label;
}

const char* kSourceNames[] = {"memory", "v3 mmap", "v3 pread"};

/// Runs the same query stream through every leaf source and asserts each
/// answer is byte-identical to the naive oracle's, and every source's
/// AccessStats to the oracle's tally.
void RunDifferential(const data::Table& table, int k, int num_random,
                     uint64_t seed) {
  LeafSources sources(table, k);
  const std::vector<data::TupleId> order = testutil::SumOrder(table);
  std::mt19937_64 rng(seed);
  std::vector<Query> queries = EdgeQueries(table.schema());
  for (int i = 0; i < num_random; ++i) {
    queries.push_back(RandomQuery(rng, table.schema()));
  }
  AccessStats expected;
  QueryResult got;
  for (const Query& q : queries) {
    const QueryResult want = testutil::NaiveTopK(table, order, q, k);
    ++expected.queries_issued;
    expected.tuples_returned += want.size();
    expected.overflowed_queries += want.overflow ? 1 : 0;
    expected.empty_queries += want.empty() ? 1 : 0;
    for (size_t s = 0; s < sources.ifaces.size(); ++s) {
      ASSERT_TRUE(sources.ifaces[s]->Execute(q, &got).ok());
      const std::string label = std::string(kSourceNames[s]) + " query " +
                                q.ToString(table.schema());
      EXPECT_EQ(want.ids, got.ids) << label;
      EXPECT_EQ(want.tuples, got.tuples) << label;
      EXPECT_EQ(want.overflow, got.overflow) << label;
    }
  }
  for (size_t s = 0; s < sources.ifaces.size(); ++s) {
    ExpectSameStats(expected, sources.ifaces[s]->stats(), kSourceNames[s]);
  }
}

TEST(ExecDifferentialTest, IndependentData) {
  const data::Table t = SyntheticTable(
      3000, 4, 50, dataset::Distribution::kIndependent, 7001);
  RunDifferential(t, 5, 400, 901);
}

TEST(ExecDifferentialTest, AntiCorrelatedData) {
  const data::Table t = SyntheticTable(
      2000, 3, 1000, dataset::Distribution::kAntiCorrelated, 7002);
  RunDifferential(t, 10, 300, 902);
}

TEST(ExecDifferentialTest, NullLacedData) {
  const data::Table t = NullLacedTable(1500, 3, 49, 0.2, 7003);
  RunDifferential(t, 5, 400, 903);
}

TEST(ExecDifferentialTest, LargeKSpansManyLeaves) {
  // k above the leaf size: answers merge matches from many leaves.
  const data::Table t = SyntheticTable(
      4000, 3, 200, dataset::Distribution::kIndependent, 7007);
  RunDifferential(t, 600, 100, 907);
}

TEST(ExecDifferentialTest, NullsNeverMatchConstrainedAttributes) {
  const data::Table t = NullLacedTable(400, 2, 19, 0.5, 7004);
  LeafSources sources(t, 400);  // k > n: full match set comes back
  // Constrained over the whole domain: every non-NULL value matches, no
  // NULL may.
  Query q(2);
  q.AddAtLeast(0, 0);
  for (auto& iface : sources.ifaces) {
    auto r = iface->Execute(q);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_FALSE(r.value().overflow);
    for (const data::Tuple& tup : r.value().tuples) {
      EXPECT_NE(tup[0], data::kNullValue);
    }
  }
}

TEST(KdBuildTest, MemoryTreeIsThePackedFilesTree) {
  const data::Table t = NullLacedTable(3000, 3, 99, 0.1, 7008);
  auto leaves = data::KdLeaves::Build(t, testutil::SumOrder(t));
  ASSERT_TRUE(leaves.ok()) << leaves.status();
  const data::KdTree& mem = (*leaves)->tree();
  PackedFile file(t);
  auto opened = data::BlockFile::Open(file.path());
  ASSERT_TRUE(opened.ok()) << opened.status();
  const data::KdTree& disk = (*opened)->tree();
  ASSERT_GT(mem.num_nodes(), 1);
  ASSERT_EQ(mem.num_nodes(), disk.num_nodes());
  EXPECT_EQ(mem.boxes, disk.boxes);
  for (int32_t i = 0; i < mem.num_nodes(); ++i) {
    EXPECT_EQ(mem.node(i).min_rank, disk.node(i).min_rank) << "node " << i;
    EXPECT_EQ(mem.node(i).left, disk.node(i).left) << "node " << i;
    EXPECT_EQ(mem.node(i).right, disk.node(i).right) << "node " << i;
    EXPECT_EQ(mem.node(i).page, disk.node(i).page) << "node " << i;
    EXPECT_EQ(mem.node(i).rows, disk.node(i).rows) << "node " << i;
  }
}

TEST(KdBuildTest, IdenticalRowsAreHalvedByRank) {
  // No dimension splits a range of identical rows, so the build halves
  // by rank: every leaf holds a run of consecutive ranks, and none
  // exceeds the leaf size.
  auto schema = data::Schema::Create(
      {{"a", data::AttributeKind::kRanking, data::InterfaceType::kRQ, 0, 9},
       {"b", data::AttributeKind::kRanking, data::InterfaceType::kRQ, 0,
        9}});
  ASSERT_TRUE(schema.ok()) << schema.status();
  data::Table t(std::move(schema).value());
  const int64_t n = 5 * data::kDefaultRowsPerBlock + 17;
  for (int64_t r = 0; r < n; ++r) ASSERT_TRUE(t.Append({4, 7}).ok());
  const std::vector<data::TupleId> order = testutil::SumOrder(t);
  auto leaves = data::KdLeaves::Build(t, order);
  ASSERT_TRUE(leaves.ok()) << leaves.status();
  const data::KdTree& tree = (*leaves)->tree();
  int64_t next_rank = 0;
  int32_t num_leaves = 0;
  for (int32_t i = 0; i < tree.num_nodes(); ++i) {
    if (tree.node(i).left >= 0) continue;
    ++num_leaves;
    const data::DataPageView v = (*leaves)->leaf(tree.node(i).page);
    ASSERT_GE(v.rows, 1);
    EXPECT_LE(v.rows, data::kDefaultRowsPerBlock);
    EXPECT_EQ(static_cast<int64_t>(tree.node(i).rows), v.rows);
    for (int64_t r = 0; r < v.rows; ++r) {
      // Preorder visits the leaves left to right: rank order.
      EXPECT_EQ(v.ranks[r], next_rank);
      EXPECT_EQ(v.ids[r], order[static_cast<size_t>(next_rank)]);
      EXPECT_EQ(v.values[r], 4);
      EXPECT_EQ(v.values[v.rows + r], 7);
      ++next_rank;
    }
  }
  EXPECT_EQ(next_rank, n);
  EXPECT_GE(num_leaves, 6);
  auto iface = testutil::MakeInterface(&t, interface::MakeSumRanking(), 3);
  auto r = iface->Execute(Query(2).AddAtMost(0, 4));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->overflow);
  EXPECT_EQ(r->ids, std::vector<data::TupleId>(order.begin(),
                                               order.begin() + 3));
}

TEST(ExecKernelTest, CollectBoundsClampsBelowNull) {
  Query q(2);
  q.AddAtLeast(0, 5);  // upper end unconstrained
  std::vector<interface::exec::AttrBound> bounds;
  ASSERT_TRUE(interface::exec::CollectBounds(q, &bounds));
  ASSERT_EQ(bounds.size(), 1u);
  EXPECT_EQ(bounds[0].attr, 0);
  EXPECT_EQ(bounds[0].lo, 5);
  EXPECT_EQ(bounds[0].hi, data::kNullValue - 1);
  EXPECT_FALSE(interface::exec::InBound(data::kNullValue, bounds[0]));
  EXPECT_TRUE(interface::exec::InBound(5, bounds[0]));
  EXPECT_FALSE(interface::exec::InBound(4, bounds[0]));
}

TEST(ExecKernelTest, CollectBoundsRejectsUnsatisfiablePoint) {
  Query q(1);
  q.AddEquals(0, data::kNullValue);  // no stored value can match
  std::vector<interface::exec::AttrBound> bounds;
  EXPECT_FALSE(interface::exec::CollectBounds(q, &bounds));
}

TEST(ExecKernelTest, SelectAndRefineMatchScalarSemantics) {
  std::mt19937_64 rng(31337);
  std::uniform_int_distribution<data::Value> val(-5, 25);
  std::vector<data::Value> a(777), b(777);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = val(rng);
    b[i] = val(rng);
  }
  const interface::exec::AttrBound ba{0, 0, 9};
  const interface::exec::AttrBound bb{1, 3, 20};
  std::vector<int32_t> sel(a.size());
  int32_t n = interface::exec::SelectInterval(
      a.data(), static_cast<int32_t>(a.size()), ba, sel.data());
  n = interface::exec::RefineInterval(b.data(), bb, sel.data(), n);
  std::vector<int32_t> expected;
  for (int32_t i = 0; i < static_cast<int32_t>(a.size()); ++i) {
    if (a[static_cast<size_t>(i)] >= 0 && a[static_cast<size_t>(i)] <= 9 &&
        b[static_cast<size_t>(i)] >= 3 && b[static_cast<size_t>(i)] <= 20) {
      expected.push_back(i);
    }
  }
  ASSERT_EQ(static_cast<size_t>(n), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(sel[i], expected[i]);
  }
}

}  // namespace
