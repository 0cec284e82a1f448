// Out-of-core storage suite: block-file round trips, corruption and
// malformed-directory rejection, buffer-pool residency invariants (LRU
// eviction order, pin protection, single-flight CRC verification under
// concurrent readers — the TSan target for the paged path), and the paged
// TopKInterface's differential contract against the in-memory engine.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "data/block_file.h"
#include "data/encoding.h"
#include "data/buffer_pool.h"
#include "data/paged_table.h"
#include "data/table.h"
#include "dataset/pack.h"
#include "dataset/synthetic.h"
#include "interface/ranking.h"
#include "interface/top_k_interface.h"
#include "tests/test_util.h"

namespace hdsky {
namespace data {
namespace {

using dataset::PackTable;
using interface::Query;
using interface::QueryResult;
using interface::TopKInterface;
using interface::TopKOptions;

std::string TempDir(const std::string& tag) {
  std::string tmpl = (std::filesystem::temp_directory_path() /
                      ("hdsky_storage_" + tag + ".XXXXXX"))
                         .string();
  char* made = ::mkdtemp(tmpl.data());
  EXPECT_NE(made, nullptr);
  return tmpl;
}

struct ScopedDir {
  explicit ScopedDir(const std::string& tag) : path(TempDir(tag)) {}
  ~ScopedDir() { std::filesystem::remove_all(path); }
  std::string path;
};

Table MakeTable(int64_t n, data::InterfaceType iface = InterfaceType::kRQ,
                int64_t domain = 100, uint64_t seed = 7) {
  dataset::SyntheticOptions o;
  o.num_tuples = n;
  o.num_attributes = 3;
  o.domain_size = domain;
  o.distribution = dataset::Distribution::kAntiCorrelated;
  o.iface = iface;
  o.seed = seed;
  return std::move(dataset::GenerateSynthetic(o)).value();
}

// Packs `table` under sum ranking into <dir>/<name>.hdb and returns the
// path. 64-row leaves keep many pages even for small test tables.
// Defaults to raw runs (kOff): the corruption tests below compute
// offsets inside a page from the raw run layout.
std::string Pack(const Table& table, const std::string& dir,
                 const std::string& name, int64_t rows_per_block = 64,
                 Compression compression = Compression::kOff) {
  BlockFileOptions o;
  o.rows_per_block = rows_per_block;
  o.compression = compression;
  const std::string path = dir + "/" + name + ".hdb";
  auto rows =
      PackTable(table, interface::MakeSumRanking(), path, o);
  EXPECT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(*rows, table.num_rows());
  return path;
}

std::unique_ptr<BlockFile> OpenFile(const std::string& path) {
  auto f = BlockFile::Open(path);
  EXPECT_TRUE(f.ok()) << f.status();
  return std::move(f).value();
}

// Flips one byte of the file in place (the on-disk image a mmap'd
// reader will observe).
void FlipByte(const std::string& path, int64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(offset);
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x40);
  f.seekp(offset);
  f.write(&b, 1);
}

// ---------------------------------------------------------------------------
// Block file: format round trip and corruption rejection.

// Reads every data page through a roomy pool and checks the file's
// contract against the in-memory ranking: each page is one k-d leaf of at
// most `rows_per_block` rows in strictly ascending rank order, every row
// appears exactly once, rank r is the row an unconstrained top-n query
// answers r-th, values match the table and lie inside the leaf's box.
void ExpectLeavesCoverRankOrder(const Table& table, const BlockFile& file,
                                int64_t rows_per_block) {
  const int64_t n = table.num_rows();
  auto iface = testutil::MakeInterface(&table, interface::MakeSumRanking(),
                                       static_cast<int>(n));
  auto truth = iface->Execute(Query(table.schema().num_attributes()));
  ASSERT_TRUE(truth.ok()) << truth.status();
  ASSERT_EQ(truth->size(), n);
  const int m = file.num_attributes();

  std::vector<int> seen(static_cast<size_t>(n), 0);
  std::vector<int32_t> leaf_of_page(
      static_cast<size_t>(file.num_data_pages()), -1);
  for (int32_t i = 0; i < file.num_nodes(); ++i) {
    if (file.node(i).left < 0) {
      leaf_of_page[static_cast<size_t>(file.node(i).page)] = i;
    }
  }
  BufferPool::Options popts;
  popts.budget_bytes = size_t{64} << 20;
  BufferPool pool(&file, popts);
  for (int64_t b = 0; b < file.num_data_pages(); ++b) {
    auto page = pool.Pin(b);
    ASSERT_TRUE(page.ok()) << page.status();
    const BlockFile::DataPageView v = file.data_page(page->data());
    ASSERT_GE(v.rows, 1);
    EXPECT_LE(v.rows, rows_per_block);
    const int32_t leaf = leaf_of_page[static_cast<size_t>(b)];
    ASSERT_GE(leaf, 0);
    EXPECT_EQ(v.ranks[0], file.node(leaf).min_rank);
    const Value* box = file.node_box(leaf);
    for (int64_t i = 0; i < v.rows; ++i) {
      if (i > 0) {
        EXPECT_LT(v.ranks[i - 1], v.ranks[i]);
      }
      const int64_t r = v.ranks[i];
      ASSERT_GE(r, 0);
      ASSERT_LT(r, n);
      ++seen[static_cast<size_t>(r)];
      EXPECT_EQ(v.ids[i], truth->ids[static_cast<size_t>(r)]);
      for (int a = 0; a < m; ++a) {
        const Value val = v.values[a * v.rows + i];
        EXPECT_EQ(val, table.value(v.ids[i], a));
        EXPECT_GE(val, box[2 * a]);
        EXPECT_LE(val, box[2 * a + 1]);
      }
    }
  }
  for (int64_t r = 0; r < n; ++r) {
    EXPECT_EQ(seen[static_cast<size_t>(r)], 1) << "rank " << r;
  }
}

TEST(StorageBlockFileTest, RoundTripContentAndRankOrder) {
  ScopedDir dir("roundtrip");
  Table table = MakeTable(500);
  const std::string path = Pack(table, dir.path, "t");

  std::unique_ptr<BlockFile> file = OpenFile(path);
  EXPECT_EQ(file->num_rows(), 500);
  EXPECT_EQ(file->num_attributes(), 3);
  EXPECT_EQ(file->ranking_name(), "linear");  // MakeSumRanking's name
  EXPECT_GE(file->num_data_pages(), (500 + 63) / 64);
  EXPECT_EQ(file->num_nodes(), 2 * file->num_data_pages() - 1);
  EXPECT_EQ(file->node(0).min_rank, 0);
  EXPECT_EQ(file->node(0).rows, 500u);
  EXPECT_EQ(file->schema().num_attributes(),
            table.schema().num_attributes());
  ExpectLeavesCoverRankOrder(table, *file, 64);
}

TEST(StorageBlockFileTest, TiedValuesStillFitTheLeafSize) {
  // Domain 2 over three attributes: most ranges have a median equal to
  // their minimum, so the median split fails and the writer halves them
  // in rank order instead. Every leaf must still fit the block size.
  ScopedDir dir("ties");
  Table table = MakeTable(700, InterfaceType::kRQ, /*domain=*/2);
  const std::string path = Pack(table, dir.path, "t", 16);
  std::unique_ptr<BlockFile> file = OpenFile(path);
  ExpectLeavesCoverRankOrder(table, *file, 16);
}

TEST(StorageBlockFileTest, BoundaryRowCounts) {
  ScopedDir dir("boundary");
  for (int64_t n : {int64_t{1}, int64_t{64}, int64_t{65}, int64_t{128}}) {
    Table table = MakeTable(n);
    const std::string path =
        Pack(table, dir.path, "n" + std::to_string(n));
    std::unique_ptr<BlockFile> file = OpenFile(path);
    EXPECT_EQ(file->num_rows(), n);
    EXPECT_GE(file->num_data_pages(), (n + 63) / 64);
    ExpectLeavesCoverRankOrder(table, *file, 64);
  }
}

TEST(StorageBlockFileTest, EmptyTableRoundTrips) {
  ScopedDir dir("empty");
  Table table = MakeTable(0);
  const std::string path = Pack(table, dir.path, "t");
  std::unique_ptr<BlockFile> file = OpenFile(path);
  EXPECT_EQ(file->num_rows(), 0);
  EXPECT_EQ(file->num_data_pages(), 0);
  EXPECT_EQ(file->num_nodes(), 0);
  PagedTableOptions popts;
  auto paged = PagedTable::Open(path, popts);
  ASSERT_TRUE(paged.ok()) << paged.status();
  TopKOptions topts;
  topts.k = 3;
  auto iface = TopKInterface::CreatePaged(paged->get(), topts);
  ASSERT_TRUE(iface.ok()) << iface.status();
  auto r = (*iface)->Execute(Query(3));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->empty());
}

TEST(StorageBlockFileTest, PackRejectsDynamicRanking) {
  ScopedDir dir("dynamic");
  Table table = MakeTable(100);
  BlockFileOptions o;
  auto rows = PackTable(table, interface::MakeAdversarialRanking(3),
                        dir.path + "/t.hdb", o);
  EXPECT_FALSE(rows.ok());
  EXPECT_FALSE(std::filesystem::exists(dir.path + "/t.hdb"));
}

TEST(StorageBlockFileTest, OpenRejectsTruncatedFile) {
  ScopedDir dir("truncated");
  Table table = MakeTable(300);
  const std::string path = Pack(table, dir.path, "t");
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full / 2);
  EXPECT_FALSE(BlockFile::Open(path).ok());
}

TEST(StorageBlockFileTest, OpenRejectsCorruptHeader) {
  ScopedDir dir("header");
  Table table = MakeTable(300);
  const std::string path = Pack(table, dir.path, "t");
  FlipByte(path, 3);  // inside the magic
  EXPECT_FALSE(BlockFile::Open(path).ok());
}

TEST(StorageBlockFileTest, OpenRejectsMissingFile) {
  EXPECT_FALSE(BlockFile::Open("/nonexistent/nope.hdb").ok());
}

// ---------------------------------------------------------------------------
// Buffer pool: residency accounting under a byte budget.

TEST(BufferPoolTest, EvictsInLeastRecentlyUnpinnedOrder) {
  ScopedDir dir("lru");
  // Distinct values: exact median splits cut 640 rows into 16 leaves of
  // 40 rows, so every frame has the same size.
  Table table = MakeTable(640, InterfaceType::kRQ, /*domain=*/1 << 24);
  const std::string path = Pack(table, dir.path, "t");
  std::unique_ptr<BlockFile> file = OpenFile(path);
  for (int64_t page = 1; page <= 3; ++page) {
    ASSERT_EQ(file->frame_bytes(page), file->frame_bytes(0));
  }

  BufferPool::Options popts;
  // The pool budgets decoded frames: room for exactly three of them.
  popts.budget_bytes = 3 * file->frame_bytes(0);
  BufferPool pool(file.get(), popts);
  auto touch = [&](int64_t page_id) {
    auto r = pool.Pin(page_id);
    ASSERT_TRUE(r.ok()) << r.status();
  };

  touch(0);
  touch(1);
  touch(2);
  BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.loads, 3u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.resident_pages, 3u);

  // A fourth page exceeds the budget: page 0 — least recently
  // unpinned — goes.
  touch(3);
  s = pool.stats();
  EXPECT_EQ(s.loads, 4u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.resident_pages, 3u);

  // Page 1 is still resident (hit) and becomes most recent.
  touch(1);
  s = pool.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.loads, 4u);

  // Reloading page 0 evicts page 2, now the coldest.
  touch(0);
  // And pinning 2 again must be a fresh load that evicts page 3.
  touch(2);
  s = pool.stats();
  EXPECT_EQ(s.loads, 6u);
  EXPECT_EQ(s.evictions, 3u);
  EXPECT_EQ(s.resident_pages, 3u);

  // Page 1 survived the whole dance.
  touch(1);
  EXPECT_EQ(pool.stats().hits, 2u);
}

TEST(BufferPoolTest, PinnedPagesSurviveBudgetPressure) {
  ScopedDir dir("pins");
  Table table = MakeTable(640);
  const std::string path = Pack(table, dir.path, "t");
  std::unique_ptr<BlockFile> file = OpenFile(path);

  BufferPool::Options popts;
  popts.budget_bytes = 1;  // floored to one page
  BufferPool pool(file.get(), popts);
  EXPECT_EQ(pool.budget_bytes(), file->page_bytes());

  auto held = pool.Pin(0);
  ASSERT_TRUE(held.ok()) << held.status();
  const BlockFile::DataPageView before = file->data_page(held->data());
  const TupleId first_id = before.ids[0];
  const Value first_val = before.values[0];

  {
    // Over-budget churn while page 0 stays pinned.
    auto h2 = pool.Pin(1);
    ASSERT_TRUE(h2.ok()) << h2.status();
    auto h3 = pool.Pin(2);
    ASSERT_TRUE(h3.ok()) << h3.status();
    BufferPool::Stats s = pool.stats();
    EXPECT_EQ(s.resident_pages, 3u);  // nothing evictable
    EXPECT_GT(s.overcommits, 0u);
    EXPECT_EQ(s.evictions, 0u);
  }
  for (int64_t p = 3; p <= 7; ++p) {
    auto r = pool.Pin(p);
    ASSERT_TRUE(r.ok()) << r.status();
  }

  // The pinned page was never evicted and its bytes never moved.
  BlockFile::DataPageView after = file->data_page(held->data());
  EXPECT_EQ(after.ids[0], first_id);
  EXPECT_EQ(after.values[0], first_val);
  EXPECT_EQ(pool.stats().hits, 0u);  // every other pin was a fresh load

  held = BufferPool::PageRef();  // release
  BufferPool::Stats s = pool.stats();
  EXPECT_LE(s.resident_pages, 1u);
  EXPECT_LE(s.resident_bytes, pool.budget_bytes());
}

TEST(BufferPoolTest, DropAllSparesPinnedPages) {
  ScopedDir dir("dropall");
  Table table = MakeTable(640);
  const std::string path = Pack(table, dir.path, "t");
  std::unique_ptr<BlockFile> file = OpenFile(path);

  BufferPool::Options popts;
  popts.budget_bytes = 8 * file->page_bytes();
  BufferPool pool(file.get(), popts);
  auto held = pool.Pin(0);
  ASSERT_TRUE(held.ok()) << held.status();
  { auto r = pool.Pin(1); ASSERT_TRUE(r.ok()); }
  { auto r = pool.Pin(2); ASSERT_TRUE(r.ok()); }

  pool.DropAll();
  BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.resident_pages, 1u);

  // The pinned page answers from residency; the dropped one reloads.
  { auto r = pool.Pin(0); ASSERT_TRUE(r.ok()); }
  { auto r = pool.Pin(1); ASSERT_TRUE(r.ok()); }
  s = pool.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.loads, 4u);
}

TEST(BufferPoolTest, CorruptDataPageFailsEveryPin) {
  ScopedDir dir("crcdata");
  Table table = MakeTable(640);
  const std::string path = Pack(table, dir.path, "t");
  {
    // Corrupt a byte in data page 1's payload before mapping.
    std::unique_ptr<BlockFile> probe = OpenFile(path);
    FlipByte(path, static_cast<int64_t>(probe->extent(1).offset +
                                        kPageHeaderBytes + 24));
  }
  std::unique_ptr<BlockFile> file = OpenFile(path);  // header is intact

  BufferPool::Options popts;
  BufferPool pool(file.get(), popts);
  { auto r = pool.Pin(0); EXPECT_TRUE(r.ok()) << r.status(); }
  auto bad = pool.Pin(1);
  EXPECT_FALSE(bad.ok());
  // A retry re-reads and re-fails; the page never becomes resident.
  auto again = pool.Pin(1);
  EXPECT_FALSE(again.ok());
  BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.crc_failures, 2u);
  EXPECT_EQ(s.resident_pages, 1u);
}

TEST(BufferPoolTest, ConcurrentReadersStayCoherent) {
  ScopedDir dir("threads");
  Table table = MakeTable(640);
  const std::string path = Pack(table, dir.path, "t");
  std::unique_ptr<BlockFile> file = OpenFile(path);
  const int64_t data_pages = file->num_data_pages();

  // Reference copy of every page, read through a roomy pool.
  std::vector<std::vector<TupleId>> want_ids(
      static_cast<size_t>(data_pages));
  std::vector<std::vector<Value>> want_vals(
      static_cast<size_t>(data_pages));
  {
    BufferPool::Options roomy;
    BufferPool ref_pool(file.get(), roomy);
    for (int64_t b = 0; b < data_pages; ++b) {
      auto page = ref_pool.Pin(b);
      ASSERT_TRUE(page.ok()) << page.status();
      BlockFile::DataPageView v = file->data_page(page->data());
      want_ids[static_cast<size_t>(b)].assign(v.ids, v.ids + v.rows);
      want_vals[static_cast<size_t>(b)].assign(
          v.values, v.values + 3 * v.rows);
    }
  }

  for (const ReadPathKind kind : {ReadPathKind::kMmap, ReadPathKind::kPread}) {
    SCOPED_TRACE(kind == ReadPathKind::kMmap ? "mmap" : "pread");
    // Two-page budget over ten data pages: every thread's pins contend
    // on load, eviction, and the single-flight CRC path.
    BufferPool::Options tiny;
    tiny.budget_bytes = 2 * file->page_bytes();
    tiny.read_path = kind;
    BufferPool pool(file.get(), tiny);

    constexpr int kThreads = 8;
    constexpr int kIters = 300;
    std::vector<std::thread> threads;
    std::atomic<int> mismatches{0};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::mt19937 rng(static_cast<uint32_t>(1000 + t));
        std::uniform_int_distribution<int64_t> pick(0, data_pages - 1);
        for (int i = 0; i < kIters; ++i) {
          const int64_t b = pick(rng);
          auto page = pool.Pin(b);
          if (!page.ok()) {
            ++mismatches;
            continue;
          }
          BlockFile::DataPageView v = file->data_page(page->data());
          const auto& ids = want_ids[static_cast<size_t>(b)];
          const auto& vals = want_vals[static_cast<size_t>(b)];
          if (v.rows != static_cast<int64_t>(ids.size()) ||
              v.ids[0] != ids[0] ||
              v.ids[v.rows - 1] != ids[ids.size() - 1] ||
              v.values[3 * v.rows - 1] != vals[vals.size() - 1]) {
            ++mismatches;
          }
          if (i % 64 == 0 && t == 0) pool.DropAll();
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(mismatches.load(), 0);

    BufferPool::Stats s = pool.stats();
    EXPECT_EQ(s.hits + s.loads,
              static_cast<uint64_t>(kThreads) * kIters);
    EXPECT_EQ(s.crc_failures, 0u);
    EXPECT_LE(s.resident_bytes, pool.budget_bytes());
  }
}

TEST(BufferPoolTest, PinRejectsIdsOutsideTheDataPages) {
  ScopedDir dir("pinrange");
  Table table = MakeTable(300);
  const std::string path = Pack(table, dir.path, "t");
  std::unique_ptr<BlockFile> file = OpenFile(path);
  BufferPool pool(file.get(), BufferPool::Options());
  EXPECT_TRUE(pool.Pin(0).ok());
  EXPECT_TRUE(pool.Pin(file->num_data_pages() - 1).ok());
  for (const int64_t id : {int64_t{-1}, file->num_data_pages()}) {
    auto r = pool.Pin(id);
    ASSERT_FALSE(r.ok()) << "pinned page " << id;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
  }
  EXPECT_EQ(pool.stats().misses, 2u);
}

// ---------------------------------------------------------------------------
// Paged interface: differential contract against the in-memory engine.

// Asserts the two answers are bit-identical.
void ExpectSameAnswer(const QueryResult& got, const QueryResult& want) {
  EXPECT_EQ(got.overflow, want.overflow);
  EXPECT_EQ(got.ids, want.ids);
  EXPECT_EQ(got.tuples, want.tuples);
}

struct PagedFixture {
  Table table;
  std::unique_ptr<PagedTable> paged;
  std::unique_ptr<TopKInterface> iface;      // out-of-core
  std::unique_ptr<TopKInterface> in_memory;  // ground truth

  PagedFixture(const std::string& dir, int64_t n, int k,
               data::InterfaceType iface_type = InterfaceType::kRQ,
               size_t pool_bytes = 8192)
      : table(MakeTable(n, iface_type, /*domain=*/50)) {
    Init(dir, k, pool_bytes);
  }

  // ASSERT_* needs a void-returning frame, which a constructor is not.
  void Init(const std::string& dir, int k, size_t pool_bytes) {
    const std::string path = Pack(table, dir, "t");
    PagedTableOptions popts;
    popts.buffer_pool_bytes = pool_bytes;  // tiny: evicts during queries
    auto p = PagedTable::Open(path, popts);
    ASSERT_TRUE(p.ok()) << p.status();
    paged = std::move(p).value();
    TopKOptions topts;
    topts.k = k;
    auto i = TopKInterface::CreatePaged(paged.get(), topts);
    ASSERT_TRUE(i.ok()) << i.status();
    iface = std::move(i).value();
    in_memory =
        testutil::MakeInterface(&table, interface::MakeSumRanking(), k);
  }
};

TEST(PagedInterfaceTest, MatchesInMemoryOnRandomQueries) {
  ScopedDir dir("diff");
  PagedFixture fx(dir.path, /*n=*/2000, /*k=*/10);

  std::vector<Query> battery;
  battery.push_back(Query(3));  // unconstrained
  battery.push_back(Query(3).AddAtMost(0, 25));
  battery.push_back(Query(3).AddEquals(0, 7).AddEquals(1, 7));
  battery.push_back(Query(3).AddEquals(0, 1).AddEquals(1, 1).AddEquals(2, 1));
  battery.push_back(Query(3).AddAtLeast(0, 49).AddAtMost(0, 0));  // empty
  battery.push_back(Query(3).AddAtLeast(0, 5000));  // out of domain
  std::mt19937 rng(99);
  std::uniform_int_distribution<Value> val(0, 49);
  std::uniform_int_distribution<int> nconstraints(1, 3);
  for (int i = 0; i < 60; ++i) {
    Query q(3);
    const int c = nconstraints(rng);
    for (int j = 0; j < c; ++j) {
      const int attr = j;
      switch (i % 3) {
        case 0: q.AddAtMost(attr, val(rng)); break;
        case 1: q.AddAtLeast(attr, val(rng)); break;
        default: q.AddEquals(attr, val(rng)); break;
      }
    }
    battery.push_back(q);
  }

  for (size_t i = 0; i < battery.size(); ++i) {
    auto got = fx.iface->Execute(battery[i]);
    auto want = fx.in_memory->Execute(battery[i]);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(want.ok()) << want.status();
    SCOPED_TRACE("query #" + std::to_string(i));
    ExpectSameAnswer(*got, *want);
  }
  // The tiny pool really was exercised out-of-core.
  EXPECT_GT(fx.paged->pool_stats().evictions, 0u);
}

TEST(PagedInterfaceTest, BufferReuseExecuteMatches) {
  ScopedDir dir("reuse");
  PagedFixture fx(dir.path, /*n=*/1000, /*k=*/5);

  QueryResult out;
  for (Value v = 0; v < 20; ++v) {
    Query q(3);
    q.AddAtMost(0, v);
    common::Status s = fx.iface->Execute(q, &out);
    ASSERT_TRUE(s.ok()) << s;
    auto want = fx.in_memory->Execute(q);
    ASSERT_TRUE(want.ok()) << want.status();
    ExpectSameAnswer(out, *want);
  }
}

TEST(PagedInterfaceTest, EnforcesQueryBudget) {
  ScopedDir dir("budget");
  Table table = MakeTable(300);
  const std::string path = Pack(table, dir.path, "t");
  PagedTableOptions popts;
  auto paged = PagedTable::Open(path, popts);
  ASSERT_TRUE(paged.ok()) << paged.status();
  TopKOptions topts;
  topts.k = 5;
  topts.query_budget = 3;
  auto iface = TopKInterface::CreatePaged(paged->get(), topts);
  ASSERT_TRUE(iface.ok()) << iface.status();

  for (int i = 0; i < 3; ++i) {
    Query q(3);
    q.AddAtMost(0, static_cast<Value>(i));
    EXPECT_TRUE((*iface)->Execute(q).ok());
  }
  EXPECT_EQ((*iface)->RemainingBudget(), 0);
  auto spent = (*iface)->Execute(Query(3));
  EXPECT_FALSE(spent.ok());
  EXPECT_TRUE(spent.status().IsResourceExhausted());
  EXPECT_EQ((*iface)->stats().queries_issued, 3);
}

TEST(PagedInterfaceTest, RejectsUnsupportedPredicates) {
  ScopedDir dir("unsupported");
  // SQ attributes accept only upper bounds / equality; a lower bound
  // must be rejected without being charged.
  Table table = MakeTable(300, InterfaceType::kSQ);
  const std::string path = Pack(table, dir.path, "t");
  PagedTableOptions popts;
  auto paged = PagedTable::Open(path, popts);
  ASSERT_TRUE(paged.ok()) << paged.status();
  TopKOptions topts;
  topts.k = 5;
  auto iface = TopKInterface::CreatePaged(paged->get(), topts);
  ASSERT_TRUE(iface.ok()) << iface.status();

  Query q(3);
  q.AddAtLeast(0, 5);
  auto r = (*iface)->Execute(q);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnsupported());
  EXPECT_EQ((*iface)->stats().queries_issued, 0);
  EXPECT_EQ((*iface)->stats().rejected_queries, 1);
}

// ---------------------------------------------------------------------------
// Run encodings, retired formats, corruption.

TEST(StorageBlockFileTest, CompressedRoundTripMatchesRaw) {
  ScopedDir dir("v3roundtrip");
  // Big leaves: long runs, where the encodings pay for their headers.
  Table table = MakeTable(3000);
  const std::string raw =
      Pack(table, dir.path, "raw", 512, Compression::kOff);
  const std::string comp =
      Pack(table, dir.path, "comp", 512, Compression::kAuto);

  std::unique_ptr<BlockFile> f1 = OpenFile(raw);
  std::unique_ptr<BlockFile> f2 = OpenFile(comp);
  EXPECT_EQ(f1->compression(), Compression::kOff);
  EXPECT_EQ(f2->compression(), Compression::kAuto);
  ASSERT_EQ(f1->num_data_pages(), f2->num_data_pages());
  ASSERT_EQ(f1->num_nodes(), f2->num_nodes());

  // Low-cardinality anti-correlated data: the encoded file must be
  // substantially smaller.
  EXPECT_LT(std::filesystem::file_size(comp),
            std::filesystem::file_size(raw) / 2);

  // The encoding changes the stored bytes only: the same tree, and
  // every decoded frame bit-identical past the stored-payload CRC.
  BufferPool::Options popts;
  BufferPool p1(f1.get(), popts);
  BufferPool p2(f2.get(), popts);
  for (int32_t i = 0; i < f1->num_nodes(); ++i) {
    EXPECT_EQ(f1->node(i).min_rank, f2->node(i).min_rank);
    EXPECT_EQ(f1->node(i).page, f2->node(i).page);
  }
  for (int64_t page = 0; page < f1->num_data_pages(); ++page) {
    auto r1 = p1.Pin(page);
    auto r2 = p2.Pin(page);
    ASSERT_TRUE(r1.ok()) << r1.status();
    ASSERT_TRUE(r2.ok()) << r2.status();
    ASSERT_EQ(f1->frame_bytes(page), f2->frame_bytes(page));
    EXPECT_EQ(std::memcmp(r1->data() + 4, r2->data() + 4,
                          f1->frame_bytes(page) - 4),
              0)
        << "page " << page;
  }
}

TEST(StorageBlockFileTest, RetiredFormatsAreRefusedWithRepackMessage) {
  ScopedDir dir("retired");
  for (const uint32_t version : {1u, 2u}) {
    // The magic and version of a v1/v2 header; the refusal comes before
    // anything else in the header is read.
    const std::string path =
        dir.path + "/v" + std::to_string(version) + ".hdb";
    std::string bytes = "HDSKYBF1";
    bytes.append(reinterpret_cast<const char*>(&version), 4);
    bytes.resize(kBlockFileAlign * 2, '\0');
    std::ofstream(path, std::ios::binary) << bytes;
    auto f = BlockFile::Open(path);
    ASSERT_FALSE(f.ok());
    EXPECT_TRUE(f.status().IsUnsupported()) << f.status();
    EXPECT_NE(f.status().message().find("re-pack it with hdsky_pack"),
              std::string::npos)
        << f.status();
    EXPECT_FALSE(PagedTable::Open(path, PagedTableOptions()).ok());
  }
}

TEST(StorageBlockFileTest, CorruptCompressedPayloadFailsPin) {
  ScopedDir dir("v3crc");
  Table table = MakeTable(640);
  const std::string path =
      Pack(table, dir.path, "t", 64, Compression::kAuto);
  uint64_t payload_off = 0;
  {
    std::unique_ptr<BlockFile> probe = OpenFile(path);
    ASSERT_EQ(probe->compression(), Compression::kAuto);
    // A byte inside data page 1's encoded payload, past the page's
    // {crc, count} prologue and the first run header.
    payload_off = probe->extent(1).offset + kPageHeaderBytes +
                  kRunHeaderBytes + 2;
  }
  FlipByte(path, static_cast<int64_t>(payload_off));
  std::unique_ptr<BlockFile> file = OpenFile(path);  // header + dir intact

  BufferPool::Options popts;
  BufferPool pool(file.get(), popts);
  { auto r = pool.Pin(0); EXPECT_TRUE(r.ok()) << r.status(); }
  EXPECT_FALSE(pool.Pin(1).ok());
  EXPECT_FALSE(pool.Pin(1).ok());  // retry re-reads and re-fails
  BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.crc_failures, 2u);
  EXPECT_EQ(s.resident_pages, 1u);
}

TEST(StorageBlockFileTest, CorruptPageDirectoryFailsOpen) {
  ScopedDir dir("v3dir");
  Table table = MakeTable(300);
  const std::string path =
      Pack(table, dir.path, "t", 64, Compression::kAuto);
  // The directory trailer ends the file; its CRC is the last 4 bytes
  // and an entry byte sits just before them.
  const auto size = std::filesystem::file_size(path);
  FlipByte(path, static_cast<int64_t>(size) - 10);
  EXPECT_FALSE(BlockFile::Open(path).ok());
}

// ---------------------------------------------------------------------------
// Malformed k-d directories: CRC-consistent faults that only the
// structural checks in Open and DecodePage can catch.

// A packed file's directory, editable in memory. Layout (block_file.h):
// the header holds num_pages at byte 32, num_nodes at 40 and the
// directory offset at 48; the directory is num_pages extents of 12 bytes,
// then num_nodes nodes of {i64 min_rank, i32 left, i32 right, i32 page,
// u32 rows, 2m i64 box}, then a CRC32C over everything before it.
struct DirImage {
  std::string path;
  std::vector<char> file;
  uint64_t offset = 0;
  int64_t pages = 0;
  int64_t nodes = 0;
  int m = 0;

  DirImage(const std::string& p, int num_attrs) : path(p), m(num_attrs) {
    std::ifstream in(path, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in), {});
    std::memcpy(&pages, file.data() + 32, 8);
    std::memcpy(&nodes, file.data() + 40, 8);
    std::memcpy(&offset, file.data() + 48, 8);
  }

  char* node(int64_t i) {
    return file.data() + offset + 12 * pages +
           i * (24 + 16 * static_cast<int64_t>(m));
  }
  int64_t& min_rank(int64_t i) {
    return *reinterpret_cast<int64_t*>(node(i));
  }
  int32_t& left(int64_t i) { return *reinterpret_cast<int32_t*>(node(i) + 8); }
  int32_t& right(int64_t i) {
    return *reinterpret_cast<int32_t*>(node(i) + 12);
  }
  int32_t& page(int64_t i) { return *reinterpret_cast<int32_t*>(node(i) + 16); }
  Value* box(int64_t i) { return reinterpret_cast<Value*>(node(i) + 24); }
  bool leaf(int64_t i) { return left(i) < 0; }

  // Recomputes every internal node's minimum rank from its children
  // (children lie after their parent, so one backward pass suffices).
  void FixMinRanks() {
    for (int64_t i = nodes - 1; i >= 0; --i) {
      if (!leaf(i)) min_rank(i) = std::min(min_rank(left(i)), min_rank(right(i)));
    }
  }

  // Re-seals the directory CRC and writes the file back.
  void Write() {
    const size_t dir_bytes = file.size() - offset;
    const uint32_t crc = common::Crc32c(
        std::string_view(file.data() + offset, dir_bytes - 4));
    std::memcpy(file.data() + file.size() - 4, &crc, 4);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
  }
};

// Packs a fresh 300-row file (about eight 64-row leaves) for one fault.
std::string PackForFault(const std::string& dir, const std::string& name) {
  return Pack(MakeTable(300), dir, name);
}

void ExpectOpenFails(const std::string& path, const std::string& why) {
  auto f = BlockFile::Open(path);
  ASSERT_FALSE(f.ok()) << "accepted a directory with " << why;
  EXPECT_NE(f.status().message().find("k-d"), std::string::npos)
      << f.status();
}

TEST(StorageDirectoryTest, ChildOutOfRangeIsRejected) {
  ScopedDir dir("dirchild");
  DirImage img(PackForFault(dir.path, "t"), 3);
  ASSERT_FALSE(img.leaf(0));
  img.left(0) = static_cast<int32_t>(img.nodes);
  img.Write();
  ExpectOpenFails(img.path, "a child past the node array");
}

TEST(StorageDirectoryTest, CyclicChildIsRejected) {
  ScopedDir dir("dircycle");
  DirImage img(PackForFault(dir.path, "t"), 3);
  const int32_t inner = img.left(0);
  ASSERT_FALSE(img.leaf(inner));
  img.right(inner) = 0;  // back to the root
  img.Write();
  ExpectOpenFails(img.path, "a child pointing back at the root");
}

TEST(StorageDirectoryTest, SharedChildIsRejected) {
  ScopedDir dir("dirshared");
  DirImage img(PackForFault(dir.path, "t"), 3);
  img.right(0) = img.left(0);
  img.Write();
  ExpectOpenFails(img.path, "one child reached twice");
}

TEST(StorageDirectoryTest, LeafPageMapMustBeABijection) {
  ScopedDir dir("dirpages");
  std::vector<int64_t> leaves;
  {
    DirImage probe(PackForFault(dir.path, "probe"), 3);
    for (int64_t i = 0; i < probe.nodes; ++i) {
      if (probe.leaf(i)) leaves.push_back(i);
    }
  }
  ASSERT_GE(leaves.size(), 2u);
  {
    DirImage img(PackForFault(dir.path, "repeat"), 3);
    img.page(leaves[1]) = img.page(leaves[0]);
    img.Write();
    ExpectOpenFails(img.path, "a page mapped twice (and one skipped)");
  }
  {
    DirImage img(PackForFault(dir.path, "range"), 3);
    img.page(leaves[0]) = static_cast<int32_t>(img.pages);
    img.Write();
    ExpectOpenFails(img.path, "a page past the page count");
  }
  {
    DirImage img(PackForFault(dir.path, "inner"), 3);
    img.page(0) = 0;
    img.Write();
    ExpectOpenFails(img.path, "an internal node claiming a page");
  }
}

TEST(StorageDirectoryTest, BoxMustContainChildBoxes) {
  ScopedDir dir("dirbox");
  DirImage img(PackForFault(dir.path, "t"), 3);
  const int32_t child = img.left(0);
  // Shrink the root's max on every attribute just below the child's.
  for (int a = 0; a < 3; ++a) {
    img.box(0)[2 * a + 1] = img.box(child)[2 * a + 1] - 1;
  }
  img.Write();
  ExpectOpenFails(img.path, "a box narrower than its child's");
}

TEST(StorageDirectoryTest, WrongMinimumRankIsRejected) {
  ScopedDir dir("dirminrank");
  {
    DirImage img(PackForFault(dir.path, "inner"), 3);
    img.min_rank(img.left(0)) += 1;  // disagrees with its children
    img.Write();
    ExpectOpenFails(img.path, "an internal minimum rank off by one");
  }
  {
    // A leaf's minimum moved to another unused rank, with every
    // ancestor made consistent: only the page itself can tell, so the
    // pin fails when the page's first rank disagrees.
    const std::string path = PackForFault(dir.path, "leaf");
    DirImage img(path, 3);
    int64_t leaf = -1;
    for (int64_t i = 0; i < img.nodes; ++i) {
      if (img.leaf(i) && img.min_rank(i) != 0) leaf = i;
    }
    ASSERT_GE(leaf, 0);
    const int64_t page_id = img.page(leaf);
    img.min_rank(leaf) += 1;
    img.FixMinRanks();
    img.Write();
    std::unique_ptr<BlockFile> file = OpenFile(path);
    BufferPool pool(file.get(), BufferPool::Options());
    auto pinned = pool.Pin(page_id);
    ASSERT_FALSE(pinned.ok());
    EXPECT_NE(pinned.status().message().find("ranks disagree"),
              std::string::npos)
        << pinned.status();
  }
}

TEST(StorageDirectoryTest, RankOutOfRangeOrRepeatedIsRejected) {
  ScopedDir dir("dirrank");
  {
    DirImage img(PackForFault(dir.path, "range"), 3);
    for (int64_t i = 0; i < img.nodes; ++i) {
      if (img.leaf(i) && img.min_rank(i) != 0) {
        img.min_rank(i) = 300;  // n
        break;
      }
    }
    img.FixMinRanks();
    img.Write();
    ExpectOpenFails(img.path, "a leaf minimum rank of n");
  }
  {
    DirImage img(PackForFault(dir.path, "negative"), 3);
    for (int64_t i = 0; i < img.nodes; ++i) {
      if (img.leaf(i)) img.min_rank(i) = -5;
    }
    img.FixMinRanks();
    img.Write();
    ExpectOpenFails(img.path, "negative ranks");
  }
  {
    DirImage img(PackForFault(dir.path, "repeat"), 3);
    int64_t first = -1;
    for (int64_t i = 0; i < img.nodes; ++i) {
      if (!img.leaf(i)) continue;
      if (first < 0) {
        first = i;
      } else {
        img.min_rank(i) = img.min_rank(first);
        break;
      }
    }
    img.FixMinRanks();
    img.Write();
    ExpectOpenFails(img.path, "two leaves sharing a minimum rank");
  }
  {
    // A rank repeated inside one page: rewrite the raw rank run of page
    // 0 and re-seal its CRC, so only the decoder's rank check can tell.
    const std::string path = PackForFault(dir.path, "inpage");
    uint64_t off = 0;
    int64_t rows = 0;
    {
      std::unique_ptr<BlockFile> probe = OpenFile(path);
      off = probe->extent(0).offset;
      rows = static_cast<int64_t>(
          (probe->frame_bytes(0) - kPageHeaderBytes) / (8 * 5));
    }
    DirImage img(path, 3);
    char* page = img.file.data() + off;
    // Prologue, then the raw id run, then the raw rank run.
    int64_t* ranks = reinterpret_cast<int64_t*>(
        page + kPageHeaderBytes + kRunHeaderBytes + 8 * rows +
        kRunHeaderBytes);
    ASSERT_GE(rows, 2);
    ranks[1] = ranks[0];
    uint32_t stored = 0;
    std::memcpy(&stored, page, 4);
    const size_t payload = 5 * (kRunHeaderBytes + 8 * rows);
    const uint32_t crc = common::Crc32c(
        std::string_view(page + kPageHeaderBytes, payload));
    std::memcpy(page, &crc, 4);
    img.Write();
    std::unique_ptr<BlockFile> file = OpenFile(path);
    BufferPool pool(file.get(), BufferPool::Options());
    auto pinned = pool.Pin(0);
    ASSERT_FALSE(pinned.ok());
    EXPECT_NE(pinned.status().message().find("strictly ascending"),
              std::string::npos)
        << pinned.status();
  }
}

TEST(StorageDirectoryTest, RankRepeatedAcrossPagesFailsTheQueryHoldingBoth) {
  // Page A's last rank rewritten to page B's last rank (larger, so A
  // stays strictly ascending) and A's CRC re-sealed. Open cannot see a
  // repeat across pages without decoding them all; the engine's merge
  // must refuse an answer that would hold both rows.
  ScopedDir dir("dirrepeat");
  const std::string path = PackForFault(dir.path, "t");
  std::vector<uint64_t> offs;
  std::vector<int64_t> rows;
  {
    std::unique_ptr<BlockFile> probe = OpenFile(path);
    for (int64_t p = 0; p < probe->num_data_pages(); ++p) {
      offs.push_back(probe->extent(p).offset);
      rows.push_back(static_cast<int64_t>(
          (probe->frame_bytes(p) - kPageHeaderBytes) / (8 * 5)));
    }
  }
  DirImage img(path, 3);
  // Prologue, then the raw id run, then the raw rank run.
  const auto ranks_of = [&](size_t p) {
    return reinterpret_cast<int64_t*>(img.file.data() + offs[p] +
                                      kPageHeaderBytes + kRunHeaderBytes +
                                      8 * rows[p] + kRunHeaderBytes);
  };
  const auto last_rank = [&](size_t p) {
    return ranks_of(p)[rows[p] - 1];
  };
  size_t a = 0;
  size_t b = 1;
  ASSERT_GE(offs.size(), 2u);
  if (last_rank(a) > last_rank(b)) std::swap(a, b);
  ASSERT_GE(rows[a], 2);
  ranks_of(a)[rows[a] - 1] = last_rank(b);
  char* page = img.file.data() + offs[a];
  const uint32_t crc = common::Crc32c(std::string_view(
      page + kPageHeaderBytes,
      static_cast<size_t>(5 * (kRunHeaderBytes + 8 * rows[a]))));
  std::memcpy(page, &crc, 4);
  img.Write();

  PagedTableOptions popts;
  auto paged = PagedTable::Open(path, popts);
  ASSERT_TRUE(paged.ok()) << paged.status();
  TopKOptions topts;
  topts.k = 300;  // every row: both copies enter the answer
  auto iface = TopKInterface::CreatePaged(paged->get(), topts);
  ASSERT_TRUE(iface.ok()) << iface.status();
  auto got = (*iface)->Execute(Query(3));
  ASSERT_FALSE(got.ok()) << "answered with a repeated rank";
  EXPECT_NE(got.status().message().find("two pages"), std::string::npos)
      << got.status();
}

TEST(StorageDirectoryTest, ByteFlipsNeverCrashOpenOrQueries) {
  // Deterministic, bounded pass: every byte of a small file's directory,
  // two flips each, re-sealed so the CRC passes and the structural
  // checks carry the load. A flip either fails Open, or leaves a tree
  // that every query walks to completion — an answer or a Status, never
  // a crash (the ASan/UBSan build runs this too).
  ScopedDir dir("dirflips");
  Table table = MakeTable(300);
  const std::string path = Pack(table, dir.path, "t");
  const DirImage pristine(path, 3);
  const size_t dir_bytes = pristine.file.size() - pristine.offset - 4;
  ASSERT_LT(dir_bytes, 4096u);
  std::vector<Query> battery = {Query(3), Query(3).AddAtMost(0, 30),
                                Query(3).AddAtLeast(1, 60).AddAtMost(2, 40)};
  int opened = 0;
  int rejected = 0;
  for (size_t pos = 0; pos < dir_bytes; ++pos) {
    for (const char mask : {'\x01', '\x40'}) {
      DirImage img = pristine;
      img.file[img.offset + pos] ^= mask;
      img.Write();
      PagedTableOptions popts;
      popts.buffer_pool_bytes = 8192;
      auto paged = PagedTable::Open(path, popts);
      if (!paged.ok()) {
        ++rejected;
        continue;
      }
      ++opened;
      TopKOptions topts;
      topts.k = 5;
      auto iface = TopKInterface::CreatePaged(paged->get(), topts);
      ASSERT_TRUE(iface.ok()) << iface.status();
      for (const Query& q : battery) {
        QueryResult out;
        (void)(*iface)->Execute(q, &out);
        EXPECT_LE(out.ids.size(), 5u);
      }
    }
  }
  // Structural fields reject; some box and extent-length flips pass Open
  // and are walked by the queries above.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(opened, 0);
}

// ---------------------------------------------------------------------------
// Read paths.

TEST(BufferPoolTest, PreadPathServesIdenticalFrames) {
  ScopedDir dir("pread");
  Table table = MakeTable(640);
  for (const Compression comp : {Compression::kOff, Compression::kAuto}) {
    const std::string path =
        Pack(table, dir.path,
             comp == Compression::kOff ? "raw" : "comp", 64, comp);
    std::unique_ptr<BlockFile> file = OpenFile(path);

    BufferPool::Options mopts;
    mopts.read_path = ReadPathKind::kMmap;
    BufferPool mmap_pool(file.get(), mopts);
    BufferPool::Options popts;
    popts.read_path = ReadPathKind::kPread;
    BufferPool pread_pool(file.get(), popts);
    EXPECT_STREQ(mmap_pool.read_path_name(), "mmap");
    EXPECT_STREQ(pread_pool.read_path_name(), "pread");

    for (int64_t page = 0; page < file->num_data_pages(); ++page) {
      auto a = mmap_pool.Pin(page);
      auto b = pread_pool.Pin(page);
      ASSERT_TRUE(a.ok()) << a.status();
      ASSERT_TRUE(b.ok()) << b.status();
      EXPECT_EQ(std::memcmp(a->data(), b->data(), file->frame_bytes(page)),
                0);
    }
    // Both paths read the same stored bytes for the same pages.
    EXPECT_EQ(mmap_pool.stats().bytes_read, pread_pool.stats().bytes_read);
    EXPECT_GT(pread_pool.stats().bytes_read, 0u);
  }
}

TEST(BufferPoolTest, BudgetClampIsReported) {
  ScopedDir dir("clamp");
  Table table = MakeTable(300);
  const std::string path = Pack(table, dir.path, "t");
  std::unique_ptr<BlockFile> file = OpenFile(path);

  BufferPool::Options tiny;
  tiny.budget_bytes = 1;
  BufferPool clamped(file.get(), tiny);
  EXPECT_TRUE(clamped.budget_was_clamped());
  EXPECT_EQ(clamped.requested_budget_bytes(), 1u);
  EXPECT_EQ(clamped.budget_bytes(), file->page_bytes());

  BufferPool::Options roomy;
  BufferPool fine(file.get(), roomy);
  EXPECT_FALSE(fine.budget_was_clamped());
  EXPECT_EQ(fine.requested_budget_bytes(), fine.budget_bytes());
}

// ---------------------------------------------------------------------------
// Differential battery over the full format x read-path matrix.

TEST(PagedInterfaceTest, MatchesInMemoryAcrossFormatsAndReadPaths) {
  ScopedDir dir("matrix");
  Table table = MakeTable(2000, InterfaceType::kRQ, /*domain=*/50);
  auto in_memory =
      testutil::MakeInterface(&table, interface::MakeSumRanking(), 10);

  std::vector<Query> battery;
  battery.push_back(Query(3));
  battery.push_back(Query(3).AddAtMost(0, 25));
  battery.push_back(Query(3).AddEquals(0, 7).AddEquals(1, 7));
  battery.push_back(Query(3).AddAtLeast(0, 49).AddAtMost(0, 0));
  battery.push_back(Query(3).AddAtLeast(0, 5000));
  std::mt19937 rng(41);
  std::uniform_int_distribution<Value> val(0, 49);
  for (int i = 0; i < 25; ++i) {
    Query q(3);
    q.AddAtMost(i % 3, val(rng));
    if (i % 2 == 0) q.AddAtLeast((i + 1) % 3, val(rng));
    battery.push_back(q);
  }

  for (const Compression comp : {Compression::kOff, Compression::kAuto}) {
    const std::string path =
        Pack(table, dir.path,
             comp == Compression::kOff ? "raw" : "comp", 64, comp);
    for (const ReadPathKind kind :
         {ReadPathKind::kMmap, ReadPathKind::kPread}) {
      SCOPED_TRACE(std::string(comp == Compression::kOff ? "raw" : "comp") +
                   "/" + (kind == ReadPathKind::kMmap ? "mmap" : "pread"));
      PagedTableOptions popts;
      popts.buffer_pool_bytes = 8192;  // tiny: evicts during queries
      popts.read_path = kind;
      auto paged = PagedTable::Open(path, popts);
      ASSERT_TRUE(paged.ok()) << paged.status();
      TopKOptions topts;
      topts.k = 10;
      auto iface = TopKInterface::CreatePaged(paged->get(), topts);
      ASSERT_TRUE(iface.ok()) << iface.status();

      for (size_t i = 0; i < battery.size(); ++i) {
        auto got = (*iface)->Execute(battery[i]);
        auto want = in_memory->Execute(battery[i]);
        ASSERT_TRUE(got.ok()) << got.status();
        ASSERT_TRUE(want.ok()) << want.status();
        SCOPED_TRACE("query #" + std::to_string(i));
        ExpectSameAnswer(*got, *want);
      }
      EXPECT_GT((*paged)->pool_stats().evictions, 0u);
    }
  }
}

TEST(PagedInterfaceTest, ConcurrentQueriesMatchSerial) {
  ScopedDir dir("parallel");
  PagedFixture fx(dir.path, /*n=*/1500, /*k=*/8);

  // Serial ground truth for a fixed query set, then the same set
  // answered from many threads through the tiny shared pool.
  std::vector<Query> queries;
  for (Value v = 0; v < 32; ++v) {
    Query q(3);
    q.AddAtMost(v % 3, v);
    queries.push_back(q);
  }
  std::vector<QueryResult> want;
  for (const Query& q : queries) {
    auto r = fx.in_memory->Execute(q);
    ASSERT_TRUE(r.ok()) << r.status();
    want.push_back(std::move(r).value());
  }

  constexpr int kThreads = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < queries.size() * 4;
           i += kThreads) {
        const size_t qi = i % queries.size();
        auto got = fx.iface->Execute(queries[qi]);
        if (!got.ok() || got->ids != want[qi].ids ||
            got->overflow != want[qi].overflow) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace data
}  // namespace hdsky
