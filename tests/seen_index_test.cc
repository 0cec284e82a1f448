// Property tests of core::SeenIndex, RQ-DB-SKY's seen-tuple memo,
// against the linear Query::MatchesTuple scan it replaced. Random inserts
// are interleaved with random queries across several logarithmic-method
// rebuild levels. Tuples carry NULLs; queries mix unconstrained
// attributes, lower-only, upper-only and two-sided ranges, points, empty
// (inverted) intervals, and equality on the non-ranking positions.

#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/seen_index.h"
#include "interface/query.h"

namespace hdsky {
namespace core {
namespace {

using data::Tuple;
using data::TupleId;
using data::Value;
using interface::Query;

constexpr int kWidth = 5;  // 3 ranking-like positions, 2 filter-like

/// The pre-index semantics: scan every seen tuple.
bool LinearMatch(const std::vector<Tuple>& seen, const Query& q) {
  for (const Tuple& t : seen) {
    if (q.MatchesTuple(t)) return true;
  }
  return false;
}

Tuple RandomTuple(std::mt19937_64& rng) {
  std::uniform_int_distribution<Value> val(0, 20);
  std::uniform_int_distribution<int> null_coin(0, 6);
  std::uniform_int_distribution<Value> filter(0, 3);
  Tuple t(kWidth);
  for (int a = 0; a < 3; ++a) {
    t[static_cast<size_t>(a)] =
        null_coin(rng) == 0 ? data::kNullValue : val(rng);
  }
  for (int a = 3; a < kWidth; ++a) {
    t[static_cast<size_t>(a)] =
        null_coin(rng) == 0 ? data::kNullValue : filter(rng);
  }
  return t;
}

Query RandomQuery(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> kind(0, 9);
  std::uniform_int_distribution<Value> val(-1, 21);
  Query q(kWidth);
  for (int a = 0; a < 3; ++a) {
    const Value v = val(rng);
    switch (kind(rng)) {
      case 0:
      case 1:
      case 2:
        break;  // unconstrained: NULL matches
      case 3:
        q.AddAtLeast(a, v);  // lower only: NULL must not match
        break;
      case 4:
      case 5:
        q.AddLessThan(a, v);  // upper only, RQ-DB-SKY's branch predicate
        break;
      case 6:
        q.AddAtLeast(a, v).AddAtMost(a, v + val(rng) / 2);
        break;
      case 7:
        q.AddEquals(a, v);
        break;
      case 8:
        q.AddAtLeast(a, v + 3).AddAtMost(a, v);  // inverted: empty
        break;
      default:
        // The widest constrained intervals: a lower bound at the very
        // bottom, an upper bound just below NULL.
        if (v % 2 == 0) {
          q.AddAtLeast(a, interface::Interval::kMin + 1);
        } else {
          q.AddAtMost(a, data::kNullValue - 1);
        }
        break;
    }
  }
  std::uniform_int_distribution<int> filter_coin(0, 3);
  std::uniform_int_distribution<Value> filter(0, 3);
  for (int a = 3; a < kWidth; ++a) {
    if (filter_coin(rng) == 0) q.AddEquals(a, filter(rng));
  }
  return q;
}

void RunStream(const std::vector<int>& split_attrs, uint64_t seed) {
  std::mt19937_64 rng(seed);
  SeenIndex index(kWidth, split_attrs);
  std::vector<Tuple> seen;
  int64_t hits = 0;
  int64_t checked = 0;
  // 3000 inserts fill trees up to level 6 (2048 tuples) and carry
  // through every lower level many times.
  for (TupleId id = 0; id < 3000; ++id) {
    const int queries = id < 200 ? 6 : 2;
    for (int j = 0; j < queries; ++j) {
      const Query q = RandomQuery(rng);
      const bool expected = LinearMatch(seen, q);
      ASSERT_EQ(index.AnyMatch(q), expected)
          << "after " << seen.size() << " inserts";
      hits += expected ? 1 : 0;
      ++checked;
    }
    const Tuple t = RandomTuple(rng);
    index.Insert(id * 7, t);
    seen.push_back(t);
  }
  // Both answers were exercised, not just one.
  EXPECT_GT(hits, checked / 10);
  EXPECT_LT(hits, checked - checked / 10);
  ASSERT_EQ(index.size(), 3000);
  for (int64_t i = 0; i < index.size(); ++i) {
    EXPECT_EQ(index.id(i), i * 7);
    EXPECT_EQ(Tuple(index.values(i), index.values(i) + kWidth),
              seen[static_cast<size_t>(i)]);
  }
}

TEST(SeenIndexTest, MatchesLinearScanAcrossRebuilds) {
  RunStream({0, 1, 2, 3, 4}, 2101);
}

// The split attributes shape the trees only: queries that constrain
// attributes the trees never split on are still answered exactly.
TEST(SeenIndexTest, SplitAttributesDoNotChangeAnswers) {
  RunStream({1, 0}, 2103);
  RunStream({}, 2104);
}

TEST(SeenIndexTest, NullMatchesOnlyUnconstrainedAttributes) {
  SeenIndex index(2, {0, 1});
  index.Insert(1, {data::kNullValue, 4});
  EXPECT_TRUE(index.AnyMatch(Query(2)));
  EXPECT_TRUE(index.AnyMatch(Query(2).AddEquals(1, 4)));
  // A lower bound alone leaves the upper end at kMax == kNullValue; the
  // interval still excludes NULL.
  EXPECT_FALSE(index.AnyMatch(Query(2).AddAtLeast(0, 0)));
  EXPECT_FALSE(index.AnyMatch(Query(2).AddAtMost(0, data::kNullValue - 1)));
  EXPECT_FALSE(index.AnyMatch(Query(2).AddAtLeast(0, data::kNullValue)));
  EXPECT_FALSE(index.AnyMatch(Query(2).AddEquals(0, data::kNullValue)));
}

TEST(SeenIndexTest, EmptyIndexAndEmptyIntervals) {
  SeenIndex index(2, {0, 1});
  EXPECT_FALSE(index.AnyMatch(Query(2)));
  for (TupleId id = 0; id < 100; ++id) index.Insert(id, {id, id % 3});
  EXPECT_TRUE(index.AnyMatch(Query(2)));
  EXPECT_FALSE(index.AnyMatch(Query(2).AddAtLeast(0, 9).AddAtMost(0, 8)));
  EXPECT_TRUE(index.AnyMatch(Query(2).AddEquals(0, 99)));
  EXPECT_FALSE(index.AnyMatch(Query(2).AddEquals(0, 99).AddEquals(1, 1)));
}

TEST(SeenIndexTest, AssignBuildsTheSameAnswers) {
  std::mt19937_64 rng(2102);
  for (const int n : {0, 31, 32, 33, 96, 1000}) {
    SCOPED_TRACE(n);
    SeenIndex grown(kWidth, {0, 1, 2});
    std::vector<TupleId> ids;
    std::vector<Value> values;
    std::vector<Tuple> seen;
    for (int i = 0; i < n; ++i) {
      const Tuple t = RandomTuple(rng);
      grown.Insert(i, t);
      ids.push_back(i);
      values.insert(values.end(), t.begin(), t.end());
      seen.push_back(t);
    }
    SeenIndex bulk(kWidth, {0, 1, 2});
    bulk.Assign(ids, values);
    ASSERT_EQ(bulk.size(), n);
    for (int j = 0; j < 300; ++j) {
      const Query q = RandomQuery(rng);
      const bool expected = LinearMatch(seen, q);
      ASSERT_EQ(grown.AnyMatch(q), expected);
      ASSERT_EQ(bulk.AnyMatch(q), expected);
    }
    // The bulk-built index keeps growing like the grown one.
    for (int i = n; i < n + 70; ++i) {
      const Tuple t = RandomTuple(rng);
      bulk.Insert(i, t);
      seen.push_back(t);
      const Query q = RandomQuery(rng);
      ASSERT_EQ(bulk.AnyMatch(q), LinearMatch(seen, q));
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace hdsky
