// The exact-median k-d split rule, shared by the in-memory KdIndex
// (interface/kd_index.h) and the format-v3 block-file writer
// (data/block_file.h), so the paged leaves and the in-memory leaves cut
// the value space the same way.

#ifndef HDSKY_DATA_KD_SPLIT_H_
#define HDSKY_DATA_KD_SPLIT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "data/value.h"

namespace hdsky {
namespace data {

/// Splits rows [begin, end) of a row-major value mirror (`num_attrs`
/// values per row) at the exact median of one dimension, permuting
/// `keys` in lockstep. Dimensions are tried round-robin from
/// depth % num_attrs; a dimension whose median equals its minimum over
/// the range (no row sorts strictly below the pivot) is skipped. Rows
/// with value < pivot end up in [begin, split). Returns the split in
/// (begin, end) and sets *dim / *pivot, or returns `begin` with the
/// range untouched when no dimension splits it.
///
/// The pivot is the exact median: a sampled-pivot variant builds ~40%
/// faster but drifts the tree a few levels deeper, and the walk pays for
/// that on every query. The median feeds a single in-place Hoare
/// partition of keys and the value mirror together.
inline int64_t KdMedianSplit(int64_t begin, int64_t end, int depth,
                             int num_attrs, int64_t* keys,
                             Value* row_vals, int* dim, Value* pivot) {
  const int64_t len = end - begin;
  const size_t m = static_cast<size_t>(num_attrs);
  thread_local std::vector<Value> vals;
  int d = depth % num_attrs;
  for (int tries = 0; tries < num_attrs; ++tries, d = (d + 1) % num_attrs) {
    vals.resize(static_cast<size_t>(len));
    for (int64_t i = 0; i < len; ++i) {
      vals[static_cast<size_t>(i)] =
          row_vals[static_cast<size_t>(begin + i) * m +
                   static_cast<size_t>(d)];
    }
    std::nth_element(vals.begin(), vals.begin() + len / 2, vals.end());
    const Value p = vals[static_cast<size_t>(len / 2)];
    // Hoare-style two-pointer pass: rows with value < p move to the front.
    // When no row is < p, nothing moves and i stays at begin.
    int64_t i = begin;
    int64_t j = end - 1;
    while (true) {
      while (i <= j && row_vals[static_cast<size_t>(i) * m +
                                static_cast<size_t>(d)] < p) {
        ++i;
      }
      while (i <= j && row_vals[static_cast<size_t>(j) * m +
                                static_cast<size_t>(d)] >= p) {
        --j;
      }
      if (i >= j) break;
      std::swap(keys[i], keys[j]);
      Value* a = row_vals + static_cast<size_t>(i) * m;
      Value* b = row_vals + static_cast<size_t>(j) * m;
      for (size_t k = 0; k < m; ++k) std::swap(a[k], b[k]);
      ++i;
      --j;
    }
    if (i > begin && i < end) {
      *dim = d;
      *pivot = p;
      return i;
    }
  }
  return begin;
}

}  // namespace data
}  // namespace hdsky

#endif  // HDSKY_DATA_KD_SPLIT_H_
