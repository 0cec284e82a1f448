// The exact-median k-d tree that clusters rows into rank-ordered leaves,
// shared by the two leaf sources the top-k walk reads
// (interface/exec/leaf_walk.h): the data pages of a format-v3 block file
// (data/block_file.h) and the in-memory KdLeaves below. One builder cuts
// both, so a table packed to disk and the same table held in memory have
// the same nodes, boxes and leaves.

#ifndef HDSKY_DATA_KD_TREE_H_
#define HDSKY_DATA_KD_TREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "data/table.h"
#include "data/value.h"

namespace hdsky {
namespace data {

/// Most rows per leaf when the caller does not choose: the smallest size
/// on the measured plateau of server CPU per query (256 to 2,048 rows on
/// perfbench's `rq_paged_journal`; docs/storage.md, "Choosing the page
/// size"). The in-memory leaves always use it.
inline constexpr int64_t kDefaultRowsPerBlock = 256;

/// A k-d node. Internal nodes have left, right >= 0 and page == -1;
/// leaves have left == right == -1 and page = their leaf index: the data
/// page the BufferPool pins, or the in-memory leaf.
struct KdNode {
  int64_t min_rank;
  int32_t left;
  int32_t right;
  int32_t page;
  uint32_t rows;
};

/// The directory of a k-d tree: its nodes in preorder (node 0 is the
/// root) and one bounding box per node (per attribute min/max over its
/// rows, NULL included — NULL sorts worst, so a box over NULLs has
/// max == kNullValue).
struct KdTree {
  int num_attrs = 0;
  std::vector<KdNode> nodes;
  std::vector<Value> boxes;  // 2 * num_attrs per node

  int32_t num_nodes() const { return static_cast<int32_t>(nodes.size()); }
  const KdNode& node(int32_t i) const {
    return nodes[static_cast<size_t>(i)];
  }
  /// Node i's box: box[2a] = min, box[2a + 1] = max of attribute a.
  const Value* node_box(int32_t i) const {
    return boxes.data() +
           static_cast<size_t>(i) * 2 * static_cast<size_t>(num_attrs);
  }
};

/// One leaf's rows in rank order (best first), from either source.
struct DataPageView {
  int64_t rows;
  const TupleId* ids;
  const int64_t* ranks;  // strictly ascending
  const Value* values;   // attribute-major runs: values[a * rows + i]
};

/// Called once per leaf, in leaf order (page 0, 1, ...), once the
/// leaf's rows [begin, end) are final: keys ascending, values
/// attribute-major (see BuildKdTree).
using KdLeafFn = std::function<common::Status(int64_t begin, int64_t end)>;

/// Builds the exact-median k-d tree over `n` rows into *tree and returns
/// its depth (edges from the root to the deepest leaf). keys[i] is row
/// i's rank, all distinct, and rows[i * num_attrs + a] its values; both
/// are permuted in place. Every range over `leaf_rows` rows is split at
/// the exact median of one dimension (round-robin from depth % m,
/// skipping a dimension whose median is its minimum over the range); a
/// range no dimension splits is halved by rank, so no leaf exceeds
/// `leaf_rows`. On return each leaf's rows [begin, end) are in rank
/// order and its values are attribute-major runs,
/// rows[begin * m + a * (end - begin) + i]. Scratch is one leaf of
/// values plus one rank or value per row: no second copy of `rows`.
/// Fails only with on_leaf's status.
common::Result<int> BuildKdTree(int num_attrs, int64_t leaf_rows,
                                int64_t n, int64_t* keys, Value* rows,
                                const KdLeafFn& on_leaf, KdTree* tree);

/// The in-memory leaf source: a table's rows clustered by BuildKdTree
/// under a static rank order, held as three flat arrays — ids, ranks and
/// values (each leaf's values attribute-major) — beside the directory.
/// Leaf p's rows are [leaf_begin[p], leaf_begin[p + 1]) of each array,
/// so a leaf is a view into them with no copy. Immutable after Build and
/// safe to share across threads.
class KdLeaves {
 public:
  /// Clusters `table`'s rows, ranked by `order` (order[r] has rank r),
  /// into leaves of at most kDefaultRowsPerBlock rows.
  static common::Result<std::unique_ptr<KdLeaves>> Build(
      const Table& table, const std::vector<TupleId>& order);

  const KdTree& tree() const { return tree_; }
  DataPageView leaf(int32_t page) const {
    const int64_t begin = leaf_begin_[static_cast<size_t>(page)];
    const int64_t end = leaf_begin_[static_cast<size_t>(page) + 1];
    return DataPageView{
        end - begin, ids_.data() + begin, ranks_.data() + begin,
        values_.data() + begin * static_cast<int64_t>(tree_.num_attrs)};
  }

 private:
  KdLeaves() = default;

  KdTree tree_;
  std::vector<TupleId> ids_;
  std::vector<int64_t> ranks_;
  std::vector<Value> values_;
  std::vector<int64_t> leaf_begin_;  // one per leaf, then the row count
};

}  // namespace data
}  // namespace hdsky

#endif  // HDSKY_DATA_KD_TREE_H_
