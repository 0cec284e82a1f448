// K-d tree accelerator for conjunctive top-k query evaluation.
//
// The simulated hidden database answers orthogonal-range top-k queries.
// Broad queries are cheap with a scan in global rank order (the (k+1)-th
// match arrives quickly), but crawling baselines issue millions of highly
// selective queries where such scans degrade to O(n). This index serves
// those: a median-split k-d tree over all attributes whose leaves hold row
// ids, with the leaf rows' attribute values packed into contiguous
// per-leaf columnar runs so the leaf-level recheck is a streaming
// selection-vector kernel (interface/exec/kernels.h) instead of one
// random column gather per row per attribute.
//
// RetrieveMatches walks only subtrees whose region can intersect the
// query and aborts once more than `abort_above` matches are found —
// callers then fall back to the rank-order scan (vectorized by
// exec::VectorEngine), which is fast exactly when the match set is
// large. NULL values sort as +inf, consistent with Interval::Contains
// rejecting NULL on any constrained attribute (the leaf-level recheck is
// authoritative; subtree pruning only ever over-approximates).

#ifndef HDSKY_INTERFACE_KD_INDEX_H_
#define HDSKY_INTERFACE_KD_INDEX_H_

#include <cstdint>
#include <vector>
#include <utility>

#include "data/table.h"
#include "interface/exec/kernels.h"
#include "interface/query.h"

namespace hdsky {
namespace interface {

class KdIndex {
 public:
  /// Builds the tree. `rank_of_row[r]` is row r's position in the global
  /// static ranking (0 = best); leaf row lists are sorted by it.
  KdIndex(const data::Table* table,
          const std::vector<int64_t>& rank_of_row);

  /// Appends to `out` every row matching `q`, stopping early (returning
  /// false) once out->size() exceeds `abort_above`. Returns true when the
  /// match set was fully enumerated. Matches arrive in no particular
  /// order.
  bool RetrieveMatches(const Query& q, int64_t abort_above,
                       std::vector<data::TupleId>* out) const;

  /// Same, over bounds already compiled by exec::CollectBounds — the
  /// hot-path entry used by TopKInterface, which compiles the query once
  /// and reuses the bounds across the index walk and the fallback scan.
  /// When `out_vals` is non-null, the matching rows' attribute values
  /// (num_attributes per match, schema order, aligned with `out`) are
  /// appended to it from the leaf-local runs — they are already hot in
  /// cache there, whereas materializing later from the column store
  /// costs one random gather per attribute per match. When `out_ranks`
  /// is non-null, each match's global rank is appended likewise, so the
  /// caller's top-k sort keys off a small contiguous array instead of
  /// gathering from an n-sized rank table.
  bool RetrieveMatches(const std::vector<exec::AttrBound>& bounds,
                       int64_t abort_above,
                       std::vector<data::TupleId>* out,
                       std::vector<data::Value>* out_vals = nullptr,
                       std::vector<int64_t>* out_ranks = nullptr) const;

  int64_t num_nodes() const { return static_cast<int64_t>(nodes_.size()); }

 private:
  struct Node {
    // Internal nodes: children indices and the split plane
    // (rows with value < split_value go left).
    int32_t left = -1;
    int32_t right = -1;
    int split_dim = -1;
    data::Value split_value = 0;
    // Leaves: [row_begin, row_end) into rows_.
    int32_t row_begin = 0;
    int32_t row_end = 0;

    bool is_leaf() const { return left < 0; }
  };

  int32_t Build(int64_t begin, int64_t end, int depth,
                std::vector<data::Value>& row_vals);

  const data::Table* table_;
  int num_attrs_ = 0;
  /// Deepest node, tracked at build time; bounds the traversal stack.
  int max_depth_ = 0;
  std::vector<Node> nodes_;
  std::vector<data::TupleId> rows_;  // permuted row ids; leaves index here
  /// Global rank of rows_[i], aligned with rows_; filled at leaf packing
  /// time so retrieval can report ranks without touching rank_of_row.
  std::vector<int64_t> ranks_;
  /// Leaf-local columnar values: for a leaf covering rows_[b, e), the run
  /// for attribute a is leaf_values_[b * m + a * (e - b)], length e - b,
  /// aligned with rows_[b, e).
  std::vector<data::Value> leaf_values_;
  /// Per-leaf zone maps, indexed by node id: leaf_zones_[id * 2m + 2a]
  /// and [.. + 2a + 1] hold the min/max of attribute a over the leaf.
  /// The split planes above a leaf constrain only a few dimensions, so
  /// most visited leaves fail this check on some tightly-bounded
  /// attribute and skip their kernel recheck entirely.
  std::vector<data::Value> leaf_zones_;
};

}  // namespace interface
}  // namespace hdsky

#endif  // HDSKY_INTERFACE_KD_INDEX_H_
