// Shared helpers for the discovery-algorithm test suites.

#ifndef HDSKY_TESTS_TEST_UTIL_H_
#define HDSKY_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/discovery.h"
#include "interface/ranking.h"
#include "interface/top_k_interface.h"
#include "skyline/compute.h"

namespace hdsky {
namespace testutil {

/// Wraps a table in a top-k interface; aborts the test on failure.
inline std::unique_ptr<interface::TopKInterface> MakeInterface(
    const data::Table* table,
    std::shared_ptr<interface::RankingPolicy> ranking, int k,
    int64_t budget = 0) {
  interface::TopKOptions opts;
  opts.k = k;
  opts.query_budget = budget;
  auto r = interface::TopKInterface::Create(table, std::move(ranking),
                                            opts);
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).value();
}

/// The naive reference answer the k-d leaf walk must reproduce: scans
/// `order` (row ids, best first) row at a time and keeps the first k
/// matches; a (k+1)-th match only sets overflow.
inline interface::QueryResult NaiveTopK(const data::Table& table,
                                        const std::vector<data::TupleId>& order,
                                        const interface::Query& q, int k) {
  interface::QueryResult r;
  for (const data::TupleId row : order) {
    if (!q.MatchesRow(table, row)) continue;
    if (r.size() == k) {
      r.overflow = true;
      break;
    }
    r.ids.push_back(row);
    r.tuples.push_back(table.GetTuple(row));
  }
  return r;
}

/// The static order of the sum ranking over `table`.
inline std::vector<data::TupleId> SumOrder(const data::Table& table) {
  auto ranking = interface::MakeSumRanking();
  EXPECT_TRUE(
      ranking->Bind(&table, table.schema().ranking_attributes()).ok());
  return *ranking->static_order();
}

/// Distinct ranking-value combinations of a discovery result, sorted —
/// the granularity at which a top-k interface can possibly reveal the
/// skyline (value-duplicates hide behind each other).
inline std::vector<data::Tuple> DiscoveredValues(
    const core::DiscoveryResult& result, const data::Schema& schema) {
  std::vector<data::Tuple> values;
  for (const data::Tuple& t : result.skyline) {
    data::Tuple v;
    for (int attr : schema.ranking_attributes()) {
      v.push_back(t[static_cast<size_t>(attr)]);
    }
    values.push_back(std::move(v));
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

/// Asserts that `result` is exactly the skyline of `table` at
/// distinct-value granularity.
inline void ExpectExactSkyline(const core::DiscoveryResult& result,
                               const data::Table& table) {
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(DiscoveredValues(result, table.schema()),
            skyline::DistinctSkylineValues(table));
}

/// Asserts every discovered tuple is on the true skyline (soundness; no
/// completeness requirement — used for anytime/budgeted runs).
inline void ExpectSoundSubset(const core::DiscoveryResult& result,
                              const data::Table& table) {
  const auto truth = skyline::DistinctSkylineValues(table);
  for (const data::Tuple& v : DiscoveredValues(result, table.schema())) {
    EXPECT_TRUE(std::binary_search(truth.begin(), truth.end(), v));
  }
}

/// Asserts the anytime trace is monotone in both coordinates and
/// consistent with the final result.
inline void ExpectWellFormedTrace(const core::DiscoveryResult& result) {
  ASSERT_FALSE(result.trace.empty());
  for (size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_GE(result.trace[i].queries_issued,
              result.trace[i - 1].queries_issued);
    EXPECT_GE(result.trace[i].skyline_discovered,
              result.trace[i - 1].skyline_discovered);
  }
  EXPECT_EQ(result.trace.back().queries_issued, result.query_cost);
  EXPECT_EQ(result.trace.back().skyline_discovered,
            static_cast<int64_t>(result.skyline.size()));
}

}  // namespace testutil
}  // namespace hdsky

#endif  // HDSKY_TESTS_TEST_UTIL_H_
