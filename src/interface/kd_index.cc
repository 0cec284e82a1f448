#include "interface/kd_index.h"

#include <algorithm>
#include <numeric>

#include "data/kd_split.h"

namespace hdsky {
namespace interface {

using data::TupleId;
using data::Value;
using exec::AttrBound;

namespace {
constexpr int64_t kLeafSize = 64;

/// Per-thread dense bound arrays for tree traversal (lo/hi per
/// dimension), rebuilt from the sparse bounds at each retrieval.
struct TraversalScratch {
  std::vector<Value> lo;
  std::vector<Value> hi;
  std::vector<int32_t> stack;     // pending node ids of the DFS walk
  std::vector<int32_t> big_sel;   // selection vector for oversized leaves
  std::vector<AttrBound> bounds;  // for the Query-taking overload
};

TraversalScratch& LocalScratch() {
  thread_local TraversalScratch scratch;
  return scratch;
}

}  // namespace

KdIndex::KdIndex(const data::Table* table,
                 const std::vector<int64_t>& rank_of_row)
    : table_(table), num_attrs_(table->schema().num_attributes()) {
  const size_t n = static_cast<size_t>(table->num_rows());
  rows_.resize(n);
  std::iota(rows_.begin(), rows_.end(), 0);
  // Row-major value mirror, permuted in lockstep with rows_. Build and
  // leaf packing touch every attribute of a row together, so keeping a
  // row's values on one cache line beats gathering them column by
  // column from the table.
  std::vector<Value> row_vals(n * static_cast<size_t>(num_attrs_));
  for (int a = 0; a < num_attrs_; ++a) {
    const std::vector<Value>& col = table->column(a);
    for (size_t r = 0; r < n; ++r) {
      row_vals[r * static_cast<size_t>(num_attrs_) +
               static_cast<size_t>(a)] = col[r];
    }
  }
  if (!rows_.empty()) {
    nodes_.reserve(rows_.size() / (kLeafSize / 4) + 16);
    Build(0, static_cast<int64_t>(rows_.size()), 0, row_vals);
  }
  // Sort each leaf's rows by global rank so leaf hits stream best-first,
  // then pack the leaf's values into contiguous per-attribute runs for
  // the kernel recheck.
  leaf_values_.resize(n * static_cast<size_t>(num_attrs_));
  ranks_.resize(n);
  leaf_zones_.assign(nodes_.size() * static_cast<size_t>(num_attrs_) * 2,
                     0);
  std::vector<std::pair<int64_t, int32_t>> by_rank(kLeafSize);
  std::vector<TupleId> leaf_rows;
  for (size_t node_id = 0; node_id < nodes_.size(); ++node_id) {
    const Node& node = nodes_[node_id];
    if (!node.is_leaf()) continue;
    const int64_t len = node.row_end - node.row_begin;
    if (len == 0) continue;
    // Sort leaf positions by rank through a contiguous key array, then
    // apply the permutation to rows_ and the value mirror together.
    by_rank.resize(static_cast<size_t>(len));
    for (int64_t i = 0; i < len; ++i) {
      by_rank[static_cast<size_t>(i)] = {
          rank_of_row[static_cast<size_t>(
              rows_[static_cast<size_t>(node.row_begin + i)])],
          static_cast<int32_t>(i)};
    }
    std::sort(by_rank.begin(), by_rank.end());
    Value* base =
        leaf_values_.data() +
        static_cast<int64_t>(node.row_begin) * num_attrs_;
    leaf_rows.resize(static_cast<size_t>(len));
    for (int64_t i = 0; i < len; ++i) {
      const int64_t src =
          node.row_begin + by_rank[static_cast<size_t>(i)].second;
      leaf_rows[static_cast<size_t>(i)] = rows_[static_cast<size_t>(src)];
      ranks_[static_cast<size_t>(node.row_begin + i)] =
          by_rank[static_cast<size_t>(i)].first;
      const Value* rv =
          row_vals.data() + static_cast<int64_t>(src) * num_attrs_;
      for (int a = 0; a < num_attrs_; ++a) {
        base[static_cast<int64_t>(a) * len + i] = rv[a];
      }
    }
    std::copy(leaf_rows.begin(), leaf_rows.end(),
              rows_.begin() + node.row_begin);
    Value* zone =
        leaf_zones_.data() +
        node_id * static_cast<size_t>(num_attrs_) * 2;
    for (int a = 0; a < num_attrs_; ++a) {
      const Value* run = base + static_cast<int64_t>(a) * len;
      Value zmin = run[0];
      Value zmax = run[0];
      for (int64_t i = 1; i < len; ++i) {
        zmin = std::min(zmin, run[i]);
        zmax = std::max(zmax, run[i]);
      }
      zone[2 * a] = zmin;
      zone[2 * a + 1] = zmax;
    }
  }
}

int32_t KdIndex::Build(int64_t begin, int64_t end, int depth,
                       std::vector<Value>& row_vals) {
  const int32_t id = static_cast<int32_t>(nodes_.size());
  nodes_.emplace_back();
  if (depth > max_depth_) max_depth_ = depth;
  int dim = 0;
  Value pivot = 0;
  const int64_t split =
      end - begin <= kLeafSize
          ? begin
          : data::KdMedianSplit(begin, end, depth, num_attrs_, rows_.data(),
                                row_vals.data(), &dim, &pivot);
  if (split == begin) {
    // A small range, or every attribute's median is its minimum over the
    // range (no split progress possible): a leaf, possibly oversized.
    nodes_[static_cast<size_t>(id)].row_begin = static_cast<int32_t>(begin);
    nodes_[static_cast<size_t>(id)].row_end = static_cast<int32_t>(end);
    return id;
  }
  const int32_t left = Build(begin, split, depth + 1, row_vals);
  const int32_t right = Build(split, end, depth + 1, row_vals);
  Node& node = nodes_[static_cast<size_t>(id)];
  node.left = left;
  node.right = right;
  node.split_dim = dim;
  node.split_value = pivot;
  return id;
}

bool KdIndex::RetrieveMatches(const Query& q, int64_t abort_above,
                              std::vector<TupleId>* out) const {
  TraversalScratch& scratch = LocalScratch();
  if (!exec::CollectBounds(q, &scratch.bounds)) return true;  // empty set
  return RetrieveMatches(scratch.bounds, abort_above, out);
}

bool KdIndex::RetrieveMatches(const std::vector<AttrBound>& bounds,
                              int64_t abort_above,
                              std::vector<TupleId>* out,
                              std::vector<Value>* out_vals,
                              std::vector<int64_t>* out_ranks) const {
  if (nodes_.empty()) return true;
  const exec::LeafMatchFn leaf_match = exec::LeafMatchKernel();
  TraversalScratch& scratch = LocalScratch();
  scratch.lo.assign(static_cast<size_t>(num_attrs_), Interval::kMin);
  scratch.hi.assign(static_cast<size_t>(num_attrs_), Interval::kMax);
  for (const AttrBound& b : bounds) {
    scratch.lo[static_cast<size_t>(b.attr)] = b.lo;
    scratch.hi[static_cast<size_t>(b.attr)] = b.hi;
  }
  const Value* lo = scratch.lo.data();
  const Value* hi = scratch.hi.data();
  // Iterative DFS with an explicit stack. The two descend-or-prune
  // decisions per internal node compile to conditional stack-pointer
  // bumps instead of data-dependent branches — the walk wanders through
  // value space, so those branches are inherently unpredictable and
  // mispredicts would dominate an otherwise cache-resident descent. A
  // pop of one internal node pushes at most a net +1 entry, so the
  // stack never exceeds tree depth + 1.
  scratch.stack.resize(static_cast<size_t>(max_depth_) + 2);
  int32_t* stack = scratch.stack.data();
  int32_t sp = 0;
  stack[sp++] = 0;
  while (sp > 0) {
    const int32_t node_id = stack[--sp];
    const Node& node = nodes_[static_cast<size_t>(node_id)];
    if (!node.is_leaf()) {
      // Left subtree holds values < split_value, right subtree
      // >= split_value. NULL rows sit on the right (NULL sorts as
      // +inf); the clamped upper bound (hi < kNullValue on constrained
      // dims) skips all-NULL subtrees, and the leaf kernel recheck
      // stays authoritative. Right is pushed below left so matches
      // still stream out in the recursive left-then-right order.
      stack[sp] = node.right;
      sp += static_cast<int32_t>(hi[node.split_dim] >= node.split_value);
      stack[sp] = node.left;
      sp += static_cast<int32_t>(lo[node.split_dim] < node.split_value);
      continue;
    }
    const int64_t len = node.row_end - node.row_begin;
    if (len == 0) continue;
    // Split planes above this leaf constrain only the dimensions the
    // walk branched on; the leaf's zone map closes the rest, usually
    // rejecting the whole leaf before any kernel runs.
    const Value* zone = leaf_zones_.data() +
                        static_cast<size_t>(node_id) *
                            static_cast<size_t>(num_attrs_) * 2;
    bool zone_reject = false;
    for (const AttrBound& b : bounds) {
      if (b.lo > zone[2 * b.attr + 1] || b.hi < zone[2 * b.attr]) {
        zone_reject = true;
        break;
      }
    }
    if (zone_reject) continue;
    const Value* base =
        leaf_values_.data() +
        static_cast<int64_t>(node.row_begin) * num_attrs_;
    // Degenerate leaves (every attribute ties across the range) may
    // exceed kLeafSize; spill their selection vector to the scratch.
    int32_t sel_local[kLeafSize];
    int32_t* sel = sel_local;
    if (len > kLeafSize) {
      scratch.big_sel.resize(static_cast<size_t>(len));
      sel = scratch.big_sel.data();
    }
    int32_t count;
    if (bounds.empty()) {
      count = static_cast<int32_t>(len);
      for (int32_t i = 0; i < count; ++i) sel[i] = i;
    } else {
      count = leaf_match(base, len, bounds.data(),
                         static_cast<int>(bounds.size()), sel);
    }
    for (int32_t i = 0; i < count; ++i) {
      out->push_back(rows_[static_cast<size_t>(node.row_begin + sel[i])]);
    }
    if (out_vals != nullptr) {
      for (int32_t i = 0; i < count; ++i) {
        for (int a = 0; a < num_attrs_; ++a) {
          out_vals->push_back(base[static_cast<int64_t>(a) * len + sel[i]]);
        }
      }
    }
    if (out_ranks != nullptr) {
      for (int32_t i = 0; i < count; ++i) {
        out_ranks->push_back(
            ranks_[static_cast<size_t>(node.row_begin + sel[i])]);
      }
    }
    if (static_cast<int64_t>(out->size()) > abort_above) return false;
  }
  return true;
}

}  // namespace interface
}  // namespace hdsky
