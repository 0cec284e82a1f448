#include "skyline/dominance_index.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace hdsky {
namespace skyline {

using data::Tuple;
using data::Value;

namespace {
constexpr int64_t kLeafSize = 8;
/// Pending buffer folded into the tree once it outgrows both this floor
/// and half the tree — the logarithmic method's amortized O(log n)
/// rebuild schedule.
constexpr int64_t kPendingFloor = 64;
}  // namespace

DominanceIndex::DominanceIndex(std::vector<int> ranking_attrs)
    : ranking_attrs_(std::move(ranking_attrs)),
      dims_(static_cast<int>(ranking_attrs_.size())) {}

void DominanceIndex::Insert(const Tuple& t) {
  if (dims_ == 0) {
    ++count_;
    return;
  }
  if (dims_ == 1) {
    min1_ = std::min(min1_, Key(t, 0));
  } else if (dims_ == 2 && !DominatedOrEqual(t)) {
    // Only minimal points enter the staircase; points at x or to its
    // right with y >= this y are no longer minimal.
    const Value x = Key(t, 0);
    const Value y = Key(t, 1);
    auto it = stair_.lower_bound(x);
    while (it != stair_.end() && it->second >= y) {
      it = stair_.erase(it);
    }
    stair_.emplace(x, y);
  }
  ++count_;
  const int32_t idx =
      static_cast<int32_t>(points_.size() / static_cast<size_t>(dims_));
  for (int i = 0; i < dims_; ++i) points_.push_back(Key(t, i));
  pending_.push_back(idx);
  const int64_t in_tree = static_cast<int64_t>(tree_items_.size());
  if (static_cast<int64_t>(pending_.size()) >
      std::max(kPendingFloor, in_tree / 2)) {
    RebuildTree();
  }
}

bool DominanceIndex::PointBeats(const Value* p, const Tuple& t,
                                bool or_equal) const {
  bool strict = false;
  for (int i = 0; i < dims_; ++i) {
    const Value tv = Key(t, i);
    if (p[i] > tv) return false;
    if (p[i] < tv) strict = true;
  }
  return or_equal || strict;
}

bool DominanceIndex::PointDominatesOver(const Value* p, const Tuple& t,
                                        const std::vector<int>& dims) const {
  bool strict = false;
  for (const int d : dims) {
    const Value tv = Key(t, d);
    if (p[d] > tv) return false;
    if (p[d] < tv) strict = true;
  }
  return strict;
}

int64_t DominanceIndex::FirstDominator(const Tuple& t,
                                       const std::vector<int>& dims) const {
  // Tree points were all inserted before the pending ones, so a
  // dominator in the tree beats any pending one.
  int32_t best = std::numeric_limits<int32_t>::max();
  if (root_ >= 0) FirstInTree(root_, t, dims, &best);
  if (best != std::numeric_limits<int32_t>::max()) return best;
  for (int32_t idx : pending_) {
    if (PointDominatesOver(
            points_.data() + static_cast<int64_t>(idx) * dims_, t, dims)) {
      return idx;
    }
  }
  return -1;
}

void DominanceIndex::FirstInTree(int32_t node_id, const Tuple& t,
                                 const std::vector<int>& dims,
                                 int32_t* best) const {
  const Node& node = nodes_[static_cast<size_t>(node_id)];
  if (node.first >= *best) return;  // nothing earlier in this subtree
  for (const int d : dims) {
    if (node.min_corner[static_cast<size_t>(d)] > Key(t, d)) return;
  }
  if (node.is_leaf()) {
    for (int32_t i = node.begin; i < node.end; ++i) {
      const int32_t idx = tree_items_[static_cast<size_t>(i)];
      if (idx < *best &&
          PointDominatesOver(points_.data() + static_cast<int64_t>(idx) * dims_,
                             t, dims)) {
        *best = idx;
      }
    }
    return;
  }
  // The subtree holding the earlier point first: its hit prunes more.
  int32_t a = node.left;
  int32_t b = node.right;
  if (nodes_[static_cast<size_t>(b)].first <
      nodes_[static_cast<size_t>(a)].first) {
    std::swap(a, b);
  }
  FirstInTree(a, t, dims, best);
  FirstInTree(b, t, dims, best);
}

bool DominanceIndex::Dominated(const Tuple& t) const {
  if (count_ == 0 || dims_ == 0) return false;
  if (dims_ == 1) return min1_ < Key(t, 0);
  if (dims_ == 2) {
    const Value x = Key(t, 0);
    const Value y = Key(t, 1);
    auto it = stair_.upper_bound(x);
    if (it == stair_.begin()) return false;
    --it;  // the minimal point with the largest x' <= x
    return it->second < y || (it->second == y && it->first < x);
  }
  if (root_ >= 0 && QueryTree(root_, t, /*or_equal=*/false)) return true;
  for (int32_t idx : pending_) {
    if (PointBeats(points_.data() + static_cast<int64_t>(idx) * dims_, t,
                   /*or_equal=*/false)) {
      return true;
    }
  }
  return false;
}

bool DominanceIndex::DominatedOrEqual(const Tuple& t) const {
  if (count_ == 0) return false;
  if (dims_ == 0) return true;  // every tuple is equal over zero attrs
  if (dims_ == 1) return min1_ <= Key(t, 0);
  if (dims_ == 2) {
    const Value x = Key(t, 0);
    auto it = stair_.upper_bound(x);
    if (it == stair_.begin()) return false;
    --it;
    return it->second <= Key(t, 1);
  }
  if (root_ >= 0 && QueryTree(root_, t, /*or_equal=*/true)) return true;
  for (int32_t idx : pending_) {
    if (PointBeats(points_.data() + static_cast<int64_t>(idx) * dims_, t,
                   /*or_equal=*/true)) {
      return true;
    }
  }
  return false;
}

void DominanceIndex::RebuildTree() {
  tree_items_.insert(tree_items_.end(), pending_.begin(), pending_.end());
  pending_.clear();
  nodes_.clear();
  nodes_.reserve(tree_items_.size() / (kLeafSize / 2) + 8);
  root_ = tree_items_.empty()
              ? -1
              : BuildNode(0, static_cast<int64_t>(tree_items_.size()), 0);
}

int32_t DominanceIndex::BuildNode(int64_t begin, int64_t end, int depth) {
  const int32_t id = static_cast<int32_t>(nodes_.size());
  nodes_.emplace_back();
  {
    Node& node = nodes_[static_cast<size_t>(id)];
    node.min_corner.assign(static_cast<size_t>(dims_), data::kNullValue);
    node.first = std::numeric_limits<int32_t>::max();
    for (int64_t i = begin; i < end; ++i) {
      const int32_t idx = tree_items_[static_cast<size_t>(i)];
      node.first = std::min(node.first, idx);
      const Value* p = points_.data() + static_cast<int64_t>(idx) * dims_;
      for (int d = 0; d < dims_; ++d) {
        node.min_corner[static_cast<size_t>(d)] =
            std::min(node.min_corner[static_cast<size_t>(d)], p[d]);
      }
    }
  }
  if (end - begin <= kLeafSize) {
    nodes_[static_cast<size_t>(id)].begin = static_cast<int32_t>(begin);
    nodes_[static_cast<size_t>(id)].end = static_cast<int32_t>(end);
    return id;
  }
  const int dim = depth % dims_;
  const int64_t mid = begin + (end - begin) / 2;
  std::nth_element(
      tree_items_.begin() + begin, tree_items_.begin() + mid,
      tree_items_.begin() + end, [&](int32_t a, int32_t b) {
        return points_[static_cast<size_t>(
                   static_cast<int64_t>(a) * dims_ + dim)] <
               points_[static_cast<size_t>(
                   static_cast<int64_t>(b) * dims_ + dim)];
      });
  const int32_t left = BuildNode(begin, mid, depth + 1);
  const int32_t right = BuildNode(mid, end, depth + 1);
  Node& node = nodes_[static_cast<size_t>(id)];
  node.left = left;
  node.right = right;
  return id;
}

bool DominanceIndex::QueryTree(int32_t node_id, const Tuple& t,
                               bool or_equal) const {
  const Node& node = nodes_[static_cast<size_t>(node_id)];
  // If the subtree's minimum corner already exceeds t somewhere, no
  // point inside can be <= t on that attribute.
  for (int d = 0; d < dims_; ++d) {
    if (node.min_corner[static_cast<size_t>(d)] > Key(t, d)) return false;
  }
  if (node.is_leaf()) {
    for (int32_t i = node.begin; i < node.end; ++i) {
      const Value* p =
          points_.data() +
          static_cast<int64_t>(tree_items_[static_cast<size_t>(i)]) *
              dims_;
      if (PointBeats(p, t, or_equal)) return true;
    }
    return false;
  }
  return QueryTree(node.left, t, or_equal) ||
         QueryTree(node.right, t, or_equal);
}

}  // namespace skyline
}  // namespace hdsky
