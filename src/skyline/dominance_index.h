// Incremental dominance index: answers "does any inserted tuple dominate
// (or equal) t on the ranking attributes?" in sublinear time as points
// stream in — the data structure behind SkylineCollector, whose Observe
// used to linearly scan every confirmed tuple per observation.
//
// Dimension-specialized:
//  * 1 attribute  — the running minimum decides everything.
//  * 2 attributes — a staircase (std::map) of the *minimal* inserted
//    points, x ascending / y strictly descending. Dominance by any
//    inserted point implies dominance by a minimal one (if s <= t with a
//    strict coordinate and s' is minimal under s, then s' <= s <= t
//    inherits the strict coordinate), so keeping only the staircase is
//    lossless for both queries. O(log |S|) per query, amortized
//    O(log |S|) per insert.
//  * >= 3 attributes — a BBS-style bulk kd-tree over all inserted points
//    with per-subtree minimum corners (prune a subtree when some corner
//    coordinate exceeds t's), plus a small pending buffer scanned
//    linearly and folded into the tree by amortized (logarithmic-method)
//    rebuilds.
//
// FirstDominator needs every inserted point, not just the minimal ones,
// so the kd-tree is kept at every dimensionality; the 1- and 2-attribute
// shortcuts above only answer Dominated and DominatedOrEqual.
//
// Values compare numerically; NULL (kNullValue = +inf) ranks worst,
// matching skyline::Compare. Copyable value type, like the collector
// that embeds it.

#ifndef HDSKY_SKYLINE_DOMINANCE_INDEX_H_
#define HDSKY_SKYLINE_DOMINANCE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "data/value.h"

namespace hdsky {
namespace skyline {

class DominanceIndex {
 public:
  /// `ranking_attrs` are the tuple positions the dominance relation is
  /// defined over (the schema's ranking attributes).
  explicit DominanceIndex(std::vector<int> ranking_attrs);

  /// Inserts tuple t (only its ranking attributes are read).
  void Insert(const data::Tuple& t);

  /// True iff some inserted tuple strictly dominates t (<= on every
  /// ranking attribute, < on at least one).
  bool Dominated(const data::Tuple& t) const;

  /// True iff some inserted tuple dominates t or equals it on all
  /// ranking attributes.
  bool DominatedOrEqual(const data::Tuple& t) const;

  /// Insertion index (0-based, in Insert order) of the first inserted
  /// tuple that strictly dominates t over `dims` — positions into
  /// ranking_attrs, any subset — or -1 when none does.
  int64_t FirstDominator(const data::Tuple& t,
                         const std::vector<int>& dims) const;

  /// Number of Insert calls (not the retained-point count).
  int64_t size() const { return count_; }

 private:
  data::Value Key(const data::Tuple& t, int i) const {
    return t[static_cast<size_t>(ranking_attrs_[static_cast<size_t>(i)])];
  }

  void RebuildTree();
  int32_t BuildNode(int64_t begin, int64_t end, int depth);
  bool QueryTree(int32_t node_id, const data::Tuple& t,
                 bool or_equal) const;
  bool PointBeats(const data::Value* p, const data::Tuple& t,
                  bool or_equal) const;
  bool PointDominatesOver(const data::Value* p, const data::Tuple& t,
                          const std::vector<int>& dims) const;
  void FirstInTree(int32_t node_id, const data::Tuple& t,
                   const std::vector<int>& dims, int32_t* best) const;

  std::vector<int> ranking_attrs_;
  int dims_ = 0;
  int64_t count_ = 0;

  // dims_ == 1.
  data::Value min1_ = data::kNullValue;

  // dims_ == 2: minimal points, x -> y, x ascending, y strictly
  // descending.
  std::map<data::Value, data::Value> stair_;

  // Every dimensionality: all inserted points.
  struct Node {
    int32_t left = -1;
    int32_t right = -1;
    int32_t begin = 0;  // leaf range into tree_items_
    int32_t end = 0;
    int32_t first = 0;  // smallest point index in the subtree
    std::vector<data::Value> min_corner;

    bool is_leaf() const { return left < 0; }
  };
  std::vector<data::Value> points_;     // flat, stride dims_
  std::vector<int32_t> pending_;        // point indices not yet in tree
  std::vector<int32_t> tree_items_;     // point indices, permuted
  std::vector<Node> nodes_;
  int32_t root_ = -1;
};

}  // namespace skyline
}  // namespace hdsky

#endif  // HDSKY_SKYLINE_DOMINANCE_INDEX_H_
