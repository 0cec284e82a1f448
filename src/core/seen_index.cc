#include "core/seen_index.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <utility>

namespace hdsky {
namespace core {

using data::Tuple;
using data::TupleId;
using data::Value;

namespace {
/// Tuples in the linear buffer before it becomes a tree, and the
/// smallest tree's size.
constexpr int64_t kBuffer = 32;
constexpr int32_t kLeafSize = 32;
/// Tuples sampled per node to choose its split attribute.
constexpr int32_t kSample = 32;
}  // namespace

SeenIndex::SeenIndex(int num_attributes, std::vector<int> split_attrs)
    : width_(num_attributes), split_attrs_(std::move(split_attrs)) {}

void SeenIndex::Insert(TupleId id, const Tuple& t) {
  ids_.push_back(id);
  values_.insert(values_.end(), t.begin(), t.begin() + width_);
  const int64_t n = size();
  if (n % kBuffer != 0) return;
  // The buffer is full: it and every tree below the lowest empty level
  // become one tree (a binary-counter carry).
  const int level = std::countr_zero(static_cast<uint64_t>(n / kBuffer));
  for (int j = 0; j < level; ++j) levels_[static_cast<size_t>(j)] = Tree{};
  BuildTree(level, n - (kBuffer << level));
}

void SeenIndex::Assign(std::vector<TupleId> ids, std::vector<Value> values) {
  ids_ = std::move(ids);
  values_ = std::move(values);
  levels_.clear();
  const uint64_t count = static_cast<uint64_t>(size() / kBuffer);
  int64_t begin = 0;
  for (int j = 63; j >= 0; --j) {  // the largest tree holds the oldest
    if (((count >> j) & 1) == 0) continue;
    BuildTree(j, begin);
    begin += kBuffer << j;
  }
}

void SeenIndex::BuildTree(int level, int64_t begin) {
  if (levels_.size() <= static_cast<size_t>(level)) {
    levels_.resize(static_cast<size_t>(level) + 1);
  }
  const int32_t len = static_cast<int32_t>(kBuffer << level);
  Tree& tree = levels_[static_cast<size_t>(level)];
  tree = Tree{};
  tree.items.resize(static_cast<size_t>(len));
  std::iota(tree.items.begin(), tree.items.end(),
            static_cast<int32_t>(begin));
  // Split choice compares spreads relative to the whole tree's, so an
  // attribute with a wide domain (price) does not win every split.
  std::vector<double> root_spread;
  for (const int d : split_attrs_) {
    root_spread.push_back(SampledSpread(tree, 0, len, d));
  }
  const size_t max_nodes = 2 * static_cast<size_t>(len / kLeafSize) + 1;
  tree.nodes.reserve(max_nodes);
  tree.boxes.reserve(max_nodes * 2 * static_cast<size_t>(width_));
  BuildNode(&tree, 0, len, root_spread);
}

double SeenIndex::SampledSpread(const Tree& tree, int32_t begin,
                                int32_t end, int attr) const {
  const int32_t stride = std::max<int32_t>(1, (end - begin) / kSample);
  Value lo = std::numeric_limits<Value>::max();
  Value hi = std::numeric_limits<Value>::min();
  for (int32_t i = begin; i < end; i += stride) {
    const Value v = values(tree.items[static_cast<size_t>(i)])[attr];
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return static_cast<double>(hi) - static_cast<double>(lo);
}

int32_t SeenIndex::BuildNode(Tree* tree, int32_t begin, int32_t end,
                             const std::vector<double>& root_spread) {
  const int32_t id = static_cast<int32_t>(tree->nodes.size());
  tree->nodes.push_back({begin, end});
  const size_t box = tree->boxes.size();
  tree->boxes.resize(box + 2 * static_cast<size_t>(width_));
  // Split the attribute whose (sampled) spread is widest; a node whose
  // sample shows no spread stays one leaf, which is still exact.
  int split = -1;
  if (end - begin > kLeafSize) {
    double widest = 0;
    for (size_t s = 0; s < split_attrs_.size(); ++s) {
      if (root_spread[s] <= 0) continue;
      const double spread =
          SampledSpread(*tree, begin, end, split_attrs_[s]) / root_spread[s];
      if (spread > widest) {
        widest = spread;
        split = split_attrs_[s];
      }
    }
  }
  Value* lo = tree->boxes.data() + box;
  Value* hi = lo + width_;
  if (split < 0) {  // a leaf: its box from its tuples
    std::fill(lo, hi, std::numeric_limits<Value>::max());
    std::fill(hi, hi + width_, std::numeric_limits<Value>::min());
    for (int32_t i = begin; i < end; ++i) {
      const Value* p = values(tree->items[static_cast<size_t>(i)]);
      for (int d = 0; d < width_; ++d) {
        lo[d] = std::min(lo[d], p[d]);
        hi[d] = std::max(hi[d], p[d]);
      }
    }
    return id;
  }
  const int32_t mid = begin + (end - begin) / 2;
  std::nth_element(tree->items.begin() + begin, tree->items.begin() + mid,
                   tree->items.begin() + end, [&](int32_t a, int32_t b) {
                     return values(a)[split] < values(b)[split];
                   });
  const int32_t left = BuildNode(tree, begin, mid, root_spread);
  const int32_t right = BuildNode(tree, mid, end, root_spread);
  tree->nodes[static_cast<size_t>(id)].left = left;
  tree->nodes[static_cast<size_t>(id)].right = right;
  // An inner node's box is the union of its children's.
  lo = tree->boxes.data() + box;
  hi = lo + width_;
  const Value* l = tree->boxes.data() + static_cast<size_t>(left) * 2 * width_;
  const Value* r =
      tree->boxes.data() + static_cast<size_t>(right) * 2 * width_;
  for (int d = 0; d < width_; ++d) {
    lo[d] = std::min(l[d], r[d]);
    hi[d] = std::max(l[width_ + d], r[width_ + d]);
  }
  return id;
}

bool SeenIndex::Matches(int64_t i, const std::vector<Bound>& bounds) const {
  const Value* p = values(i);
  for (const Bound& b : bounds) {
    if (p[b.attr] < b.lo || p[b.attr] > b.hi) return false;
  }
  return true;
}

bool SeenIndex::TreeMatches(const Tree& tree, int32_t node_id,
                            const std::vector<Bound>& bounds) const {
  const Node& node = tree.nodes[static_cast<size_t>(node_id)];
  const Value* lo =
      tree.boxes.data() + static_cast<size_t>(node_id) * 2 * width_;
  const Value* hi = lo + width_;
  bool inside = true;
  for (const Bound& b : bounds) {
    if (hi[b.attr] < b.lo || lo[b.attr] > b.hi) return false;
    if (lo[b.attr] < b.lo || hi[b.attr] > b.hi) inside = false;
  }
  if (inside) return true;  // every tuple of the node matches
  if (node.left < 0) {
    for (int32_t i = node.begin; i < node.end; ++i) {
      if (Matches(tree.items[static_cast<size_t>(i)], bounds)) return true;
    }
    return false;
  }
  return TreeMatches(tree, node.left, bounds) ||
         TreeMatches(tree, node.right, bounds);
}

bool SeenIndex::AnyMatch(const interface::Query& q) const {
  std::vector<Bound> bounds;
  bounds.reserve(static_cast<size_t>(width_));
  for (int a = 0; a < width_; ++a) {
    const interface::Interval& iv = q.interval(a);
    if (!iv.constrained()) continue;
    const Value hi = std::min(iv.upper, data::kNullValue - 1);
    if (iv.lower > hi) return false;  // nothing, not even NULL, matches
    bounds.push_back({a, iv.lower, hi});
  }
  // Newest first: the tuples that match a node's query were most often
  // returned by its parent's.
  const int64_t n = size();
  for (int64_t i = n - n % kBuffer; i < n; ++i) {
    if (Matches(i, bounds)) return true;
  }
  for (const Tree& tree : levels_) {
    if (!tree.nodes.empty() && TreeMatches(tree, 0, bounds)) return true;
  }
  return false;
}

}  // namespace core
}  // namespace hdsky
