#include "data/kd_tree.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <utility>

namespace hdsky {
namespace data {

using common::Result;
using common::Status;

namespace {

class KdBuilder {
 public:
  KdBuilder(int num_attrs, int64_t leaf_rows, int64_t* keys, Value* rows,
            const KdLeafFn& on_leaf, KdTree* tree)
      : m_(num_attrs),
        leaf_rows_(leaf_rows),
        keys_(keys),
        rows_(rows),
        on_leaf_(on_leaf),
        tree_(tree) {}

  Result<int32_t> Build(int64_t begin, int64_t end, int depth) {
    const int32_t id = static_cast<int32_t>(tree_->nodes.size());
    tree_->nodes.push_back(KdNode{0, -1, -1, -1, 0});
    tree_->boxes.resize(tree_->boxes.size() + 2 * static_cast<size_t>(m_));
    depth_ = std::max(depth_, depth);
    int64_t split = begin;
    if (end - begin > leaf_rows_) {
      split = MedianSplit(begin, end, depth);
      if (split == begin) {
        // No dimension splits the range (every median is its range's
        // minimum). Halve it by rank instead: the walk follows the boxes
        // and minimum ranks, never split planes, so any cut is exact,
        // and this one keeps every leaf within leaf_rows.
        split = RankSplit(begin, end);
      }
    }
    if (split == begin) {
      HDSKY_RETURN_IF_ERROR(FinishLeaf(begin, end, id));
      return id;
    }
    HDSKY_ASSIGN_OR_RETURN(const int32_t left,
                           Build(begin, split, depth + 1));
    HDSKY_ASSIGN_OR_RETURN(const int32_t right, Build(split, end, depth + 1));
    KdNode& node = tree_->nodes[static_cast<size_t>(id)];
    node.left = left;
    node.right = right;
    node.rows = static_cast<uint32_t>(end - begin);
    node.min_rank = std::min(tree_->node(left).min_rank,
                             tree_->node(right).min_rank);
    Value* box = Box(id);
    const Value* lb = Box(left);
    const Value* rb = Box(right);
    for (int a = 0; a < m_; ++a) {
      box[2 * a] = std::min(lb[2 * a], rb[2 * a]);
      box[2 * a + 1] = std::max(lb[2 * a + 1], rb[2 * a + 1]);
    }
    return id;
  }

  int depth() const { return depth_; }

 private:
  Value* Box(int32_t id) {
    return tree_->boxes.data() +
           static_cast<size_t>(id) * 2 * static_cast<size_t>(m_);
  }
  Value* Row(int64_t i) {
    return rows_ + static_cast<size_t>(i) * static_cast<size_t>(m_);
  }

  /// Hoare-style two-pointer pass over [begin, end): rows for which
  /// `below(i)` holds move to the front, keys and values in lockstep.
  /// Returns the first row not below; begin when none is.
  template <typename Below>
  int64_t Partition(int64_t begin, int64_t end, Below below) {
    int64_t i = begin;
    int64_t j = end - 1;
    while (true) {
      while (i <= j && below(i)) ++i;
      while (i <= j && !below(j)) --j;
      if (i >= j) return i;
      std::swap(keys_[i], keys_[j]);
      std::swap_ranges(Row(i), Row(i) + m_, Row(j));
      ++i;
      --j;
    }
  }

  /// Splits at the exact median of the first dimension, round-robin from
  /// depth % m, that has rows strictly below it; rows with value < pivot
  /// end up in [begin, split). Returns begin, the range untouched, when
  /// no dimension splits it. The pivot is the exact median: a
  /// sampled-pivot variant builds ~40% faster but drifts the tree a few
  /// levels deeper, and the walk pays for that on every query.
  int64_t MedianSplit(int64_t begin, int64_t end, int depth) {
    const int64_t len = end - begin;
    int d = depth % m_;
    for (int tries = 0; tries < m_; ++tries, d = (d + 1) % m_) {
      scratch_.resize(static_cast<size_t>(len));
      for (int64_t i = 0; i < len; ++i) {
        scratch_[static_cast<size_t>(i)] = Row(begin + i)[d];
      }
      std::nth_element(scratch_.begin(), scratch_.begin() + len / 2,
                       scratch_.end());
      const Value p = scratch_[static_cast<size_t>(len / 2)];
      const int64_t split = Partition(
          begin, end, [&](int64_t i) { return Row(i)[d] < p; });
      if (split > begin && split < end) return split;
    }
    return begin;
  }

  /// Moves the (end - begin) / 2 best-ranked rows to the front.
  int64_t RankSplit(int64_t begin, int64_t end) {
    const int64_t half = (end - begin) / 2;
    scratch_.assign(keys_ + begin, keys_ + end);
    std::nth_element(scratch_.begin(), scratch_.begin() + half,
                     scratch_.end());
    const int64_t pivot = scratch_[static_cast<size_t>(half)];
    return Partition(begin, end,
                     [&](int64_t i) { return keys_[i] < pivot; });
  }

  /// Sorts the leaf's rows by rank and transposes its values into
  /// attribute-major runs through one leaf-sized buffer, then fills the
  /// leaf's node and box and hands it to on_leaf.
  Status FinishLeaf(int64_t begin, int64_t end, int32_t id) {
    const size_t len = static_cast<size_t>(end - begin);
    const size_t m = static_cast<size_t>(m_);
    by_rank_.resize(len);
    for (size_t i = 0; i < len; ++i) {
      by_rank_[i] = {keys_[static_cast<size_t>(begin) + i], i};
    }
    std::sort(by_rank_.begin(), by_rank_.end());
    leaf_.resize(len * m);
    Value* base = Row(begin);
    for (size_t i = 0; i < len; ++i) {
      keys_[static_cast<size_t>(begin) + i] = by_rank_[i].first;
      const Value* row = base + by_rank_[i].second * m;
      for (size_t a = 0; a < m; ++a) leaf_[a * len + i] = row[a];
    }
    std::memcpy(base, leaf_.data(), len * m * sizeof(Value));
    Value* box = Box(id);
    for (size_t a = 0; a < m; ++a) {
      const auto [lo, hi] =
          std::minmax_element(base + a * len, base + (a + 1) * len);
      box[2 * a] = *lo;
      box[2 * a + 1] = *hi;
    }
    KdNode& node = tree_->nodes[static_cast<size_t>(id)];
    node.min_rank = keys_[begin];
    node.page = leaves_++;
    node.rows = static_cast<uint32_t>(len);
    return on_leaf_(begin, end);
  }

  const int m_;
  const int64_t leaf_rows_;
  int64_t* keys_;
  Value* rows_;
  const KdLeafFn& on_leaf_;
  KdTree* tree_;
  int depth_ = 0;
  int32_t leaves_ = 0;
  // Scratch: one value or rank per row of the range being split, and
  // one leaf's worth of values.
  std::vector<int64_t> scratch_;
  std::vector<std::pair<int64_t, size_t>> by_rank_;
  std::vector<Value> leaf_;
};

}  // namespace

Result<int> BuildKdTree(int num_attrs, int64_t leaf_rows, int64_t n,
                        int64_t* keys, Value* rows, const KdLeafFn& on_leaf,
                        KdTree* tree) {
  tree->num_attrs = num_attrs;
  tree->nodes.clear();
  tree->boxes.clear();
  if (n == 0) return 0;
  KdBuilder builder(num_attrs, leaf_rows, keys, rows, on_leaf, tree);
  HDSKY_RETURN_IF_ERROR(builder.Build(0, n, 0).status());
  return builder.depth();
}

Result<std::unique_ptr<KdLeaves>> KdLeaves::Build(
    const Table& table, const std::vector<TupleId>& order) {
  const int m = table.schema().num_attributes();
  const size_t n = order.size();
  if (m < 1) return Status::InvalidArgument("schema has no attributes");
  if (static_cast<int64_t>(n) != table.num_rows()) {
    return Status::InvalidArgument("rank order does not cover the table");
  }
  if (n > (size_t{1} << 31) - 1) {
    return Status::InvalidArgument("too many rows for one k-d tree");
  }
  auto out = std::unique_ptr<KdLeaves>(new KdLeaves());
  // The row-major value mirror in rank order: the build permutes it in
  // place and leaves it as the leaves' attribute-major runs.
  out->values_.resize(n * static_cast<size_t>(m));
  for (int a = 0; a < m; ++a) {
    const std::vector<Value>& col = table.column(a);
    for (size_t r = 0; r < n; ++r) {
      out->values_[r * static_cast<size_t>(m) + static_cast<size_t>(a)] =
          col[static_cast<size_t>(order[r])];
    }
  }
  out->ranks_.resize(n);
  std::iota(out->ranks_.begin(), out->ranks_.end(), int64_t{0});
  out->ids_.resize(n);
  KdLeaves& leaves = *out;
  const KdLeafFn on_leaf = [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      leaves.ids_[static_cast<size_t>(i)] =
          order[static_cast<size_t>(leaves.ranks_[static_cast<size_t>(i)])];
    }
    leaves.leaf_begin_.push_back(begin);
    return Status::OK();
  };
  HDSKY_RETURN_IF_ERROR(BuildKdTree(m, kDefaultRowsPerBlock,
                                    static_cast<int64_t>(n),
                                    out->ranks_.data(), out->values_.data(),
                                    on_leaf, &out->tree_)
                            .status());
  out->leaf_begin_.push_back(static_cast<int64_t>(n));
  return out;
}

}  // namespace data
}  // namespace hdsky
