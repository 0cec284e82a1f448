// Property tests of skyline::DominanceIndex against the linear-scan
// reference it replaced, and of SkylineCollector (which embeds the
// index) against a collector that still scans linearly. Random streams
// cover 1 through 5 dimensions — exercising the running-minimum,
// staircase, and kd-tree specializations — with small domains (forcing
// equal and dominated inserts), NULL values, non-ranking tuple
// positions, repeated ids, and unconditional AddConfirmed of
// non-antichain point sets. FirstDominator is checked against the linear
// scan RQ-DB-SKY's pivot search used, over all and over random subsets
// of the ranking attributes.

#include <algorithm>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/discovery.h"
#include "skyline/dominance.h"
#include "skyline/dominance_index.h"

namespace {

using namespace hdsky;
using data::Tuple;
using data::TupleId;
using data::Value;
using skyline::DomRelation;
using skyline::DominanceIndex;

/// The pre-index semantics: scan every stored tuple.
class LinearReference {
 public:
  explicit LinearReference(std::vector<int> attrs)
      : attrs_(std::move(attrs)) {}

  void Insert(const Tuple& t) { pts_.push_back(t); }

  bool Dominated(const Tuple& t) const {
    for (const Tuple& s : pts_) {
      if (skyline::Compare(s, t, attrs_) == DomRelation::kDominates) {
        return true;
      }
    }
    return false;
  }

  bool DominatedOrEqual(const Tuple& t) const {
    for (const Tuple& s : pts_) {
      const DomRelation rel = skyline::Compare(s, t, attrs_);
      if (rel == DomRelation::kDominates || rel == DomRelation::kEqual) {
        return true;
      }
    }
    return false;
  }

  /// RQ-DB-SKY's former pivot scan: the first stored tuple that strictly
  /// dominates t over the ranking attributes at positions `dims`.
  int64_t FirstDominator(const Tuple& t, const std::vector<int>& dims) const {
    std::vector<int> over;
    for (const int d : dims) over.push_back(attrs_[static_cast<size_t>(d)]);
    for (size_t i = 0; i < pts_.size(); ++i) {
      if (skyline::Dominates(pts_[i], t, over)) return static_cast<int64_t>(i);
    }
    return -1;
  }

 private:
  std::vector<int> attrs_;
  std::vector<Tuple> pts_;
};

/// Random non-empty subset of 0..dims-1, in random order (RQ-DB-SKY's
/// branch attributes may be any reordered subset of the ranking ones).
std::vector<int> RandomDims(std::mt19937_64& rng, int dims) {
  std::vector<int> all(static_cast<size_t>(dims));
  for (int d = 0; d < dims; ++d) all[static_cast<size_t>(d)] = d;
  std::shuffle(all.begin(), all.end(), rng);
  std::uniform_int_distribution<int> keep(1, dims);
  all.resize(static_cast<size_t>(keep(rng)));
  return all;
}

/// Random tuple whose ranking attributes live at the given positions
/// (other positions get junk the index must ignore). Small domains
/// guarantee plenty of dominance/equality collisions; ~8% NULLs check
/// the NULL-ranks-worst convention.
Tuple RandomTuple(std::mt19937_64& rng, int arity,
                  const std::vector<int>& attrs, Value domain) {
  std::uniform_int_distribution<Value> val(0, domain - 1);
  std::uniform_int_distribution<int> null_coin(0, 11);
  Tuple t(static_cast<size_t>(arity));
  for (int a = 0; a < arity; ++a) t[static_cast<size_t>(a)] = val(rng) + 1000;
  for (int a : attrs) {
    t[static_cast<size_t>(a)] =
        null_coin(rng) == 0 ? data::kNullValue : val(rng);
  }
  return t;
}

void RunStream(int dims, int64_t num_points, Value domain, uint64_t seed) {
  // Ranking attributes are the odd positions of a (2*dims+1)-ary tuple,
  // so attribute indexing is exercised, not just identity.
  const int arity = 2 * dims + 1;
  std::vector<int> attrs;
  std::vector<int> all_dims;
  for (int d = 0; d < dims; ++d) {
    attrs.push_back(2 * d + 1);
    all_dims.push_back(d);
  }

  DominanceIndex index(attrs);
  LinearReference ref(attrs);
  std::mt19937_64 rng(seed);

  for (int64_t i = 0; i < num_points; ++i) {
    const Tuple probe = RandomTuple(rng, arity, attrs, domain);
    ASSERT_EQ(ref.Dominated(probe), index.Dominated(probe))
        << "dims=" << dims << " i=" << i;
    ASSERT_EQ(ref.DominatedOrEqual(probe), index.DominatedOrEqual(probe))
        << "dims=" << dims << " i=" << i;
    ASSERT_EQ(ref.FirstDominator(probe, all_dims),
              index.FirstDominator(probe, all_dims))
        << "dims=" << dims << " i=" << i;
    const std::vector<int> some = RandomDims(rng, dims);
    ASSERT_EQ(ref.FirstDominator(probe, some),
              index.FirstDominator(probe, some))
        << "dims=" << dims << " i=" << i;

    const Tuple p = RandomTuple(rng, arity, attrs, domain);
    // Query the inserted point itself too: equality without strictness
    // is the easiest case to get wrong.
    ASSERT_EQ(ref.Dominated(p), index.Dominated(p))
        << "dims=" << dims << " i=" << i;
    ref.Insert(p);
    index.Insert(p);
    // Query the point right after inserting it: it equals itself (so
    // DominatedOrEqual must hold) but only an earlier strictly better
    // point makes it Dominated — the reference decides which.
    ASSERT_EQ(ref.Dominated(p), index.Dominated(p))
        << "dims=" << dims << " i=" << i;
    ASSERT_TRUE(index.DominatedOrEqual(p));
  }
  EXPECT_EQ(index.size(), num_points);
}

TEST(DominanceIndexTest, OneDimension) { RunStream(1, 400, 16, 11); }
TEST(DominanceIndexTest, TwoDimensions) { RunStream(2, 800, 16, 12); }
TEST(DominanceIndexTest, ThreeDimensions) { RunStream(3, 800, 8, 13); }
TEST(DominanceIndexTest, FourDimensions) { RunStream(4, 600, 6, 14); }
TEST(DominanceIndexTest, FiveDimensions) { RunStream(5, 500, 5, 15); }

TEST(DominanceIndexTest, LargeStreamCrossesRebuilds) {
  // Enough inserts to force several logarithmic-method kd rebuilds.
  RunStream(3, 3000, 24, 16);
}

TEST(DominanceIndexTest, FirstDominatorKeepsInsertionOrder) {
  // The 2-D staircase drops (5,5) once (4,4) arrives, and the 1-D minimum
  // forgets everything but the best value; the first dominator in
  // insertion order is still the earliest one, and of value-equal
  // tuples the first inserted.
  for (const int dims : {1, 2, 3}) {
    SCOPED_TRACE("dims " + std::to_string(dims));
    std::vector<int> attrs(static_cast<size_t>(dims));
    for (int d = 0; d < dims; ++d) attrs[static_cast<size_t>(d)] = d;
    DominanceIndex index(attrs);
    index.Insert(Tuple(static_cast<size_t>(dims), 5));  // 0
    index.Insert(Tuple(static_cast<size_t>(dims), 4));  // 1
    index.Insert(Tuple(static_cast<size_t>(dims), 4));  // 2, equal to 1
    index.Insert(Tuple(static_cast<size_t>(dims), 2));  // 3
    EXPECT_EQ(index.FirstDominator(Tuple(static_cast<size_t>(dims), 6),
                                   attrs),
              0);
    EXPECT_EQ(index.FirstDominator(Tuple(static_cast<size_t>(dims), 5),
                                   attrs),
              1);
    EXPECT_EQ(index.FirstDominator(Tuple(static_cast<size_t>(dims), 3),
                                   attrs),
              3);
    EXPECT_EQ(index.FirstDominator(Tuple(static_cast<size_t>(dims), 2),
                                   attrs),
              -1);
    EXPECT_EQ(index.FirstDominator(Tuple(static_cast<size_t>(dims), 9), {}),
              -1);  // nothing is strictly better over no attributes
  }
}

TEST(DominanceIndexTest, ZeroDimensions) {
  DominanceIndex index({});
  const Tuple t{1, 2};
  EXPECT_FALSE(index.Dominated(t));
  EXPECT_FALSE(index.DominatedOrEqual(t));
  index.Insert(t);
  EXPECT_FALSE(index.Dominated(t));  // no attribute can be strictly less
  EXPECT_TRUE(index.DominatedOrEqual(t));  // equal over zero attributes
}

/// SkylineCollector with the pre-index linear semantics, kept verbatim
/// as the differential reference.
class LinearCollector {
 public:
  explicit LinearCollector(std::vector<int> attrs)
      : attrs_(std::move(attrs)) {}

  bool Observe(TupleId id, const Tuple& t) {
    if (!observed_.insert(id).second) return false;
    for (const Tuple& s : tuples_) {
      const DomRelation rel = skyline::Compare(s, t, attrs_);
      if (rel == DomRelation::kDominates || rel == DomRelation::kEqual) {
        return false;
      }
    }
    return AddConfirmed(id, t);
  }

  bool AddConfirmed(TupleId id, const Tuple& t) {
    if (!id_set_.insert(id).second) return false;
    ids_.push_back(id);
    tuples_.push_back(t);
    return true;
  }

  bool IsDominated(const Tuple& t) const {
    for (const Tuple& s : tuples_) {
      if (skyline::Compare(s, t, attrs_) == DomRelation::kDominates) {
        return true;
      }
    }
    return false;
  }

  bool IsDominatedOrDuplicate(const Tuple& t) const {
    for (const Tuple& s : tuples_) {
      const DomRelation rel = skyline::Compare(s, t, attrs_);
      if (rel == DomRelation::kDominates || rel == DomRelation::kEqual) {
        return true;
      }
    }
    return false;
  }

  const std::vector<TupleId>& ids() const { return ids_; }

 private:
  std::vector<int> attrs_;
  std::vector<TupleId> ids_;
  std::vector<Tuple> tuples_;
  std::unordered_set<TupleId> id_set_;
  std::unordered_set<TupleId> observed_;
};

void RunCollectorStream(int dims, int64_t num_events, Value domain,
                        uint64_t seed) {
  std::vector<int> attrs;
  for (int d = 0; d < dims; ++d) attrs.push_back(d);

  core::SkylineCollector collector(attrs);
  LinearCollector ref(attrs);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<TupleId> id_dist(0, num_events / 3);
  std::uniform_int_distribution<int> op(0, 9);

  for (int64_t i = 0; i < num_events; ++i) {
    const TupleId id = id_dist(rng);  // repeats are frequent
    const Tuple t = RandomTuple(rng, dims, attrs, domain);
    if (op(rng) < 8) {
      ASSERT_EQ(ref.Observe(id, t), collector.Observe(id, t)) << i;
    } else {
      // Unconditional confirm: the stored set need not be an antichain.
      ASSERT_EQ(ref.AddConfirmed(id, t), collector.AddConfirmed(id, t))
          << i;
    }
    const Tuple probe = RandomTuple(rng, dims, attrs, domain);
    ASSERT_EQ(ref.IsDominated(probe), collector.IsDominated(probe)) << i;
    ASSERT_EQ(ref.IsDominatedOrDuplicate(probe),
              collector.IsDominatedOrDuplicate(probe))
        << i;
  }
  EXPECT_EQ(ref.ids(), collector.ids());
}

TEST(SkylineCollectorIndexTest, TwoDimensions) {
  RunCollectorStream(2, 1200, 20, 21);
}

TEST(SkylineCollectorIndexTest, ThreeDimensions) {
  RunCollectorStream(3, 1200, 10, 22);
}

TEST(SkylineCollectorIndexTest, FourDimensions) {
  RunCollectorStream(4, 900, 7, 23);
}

}  // namespace
