// Top-k query execution: the best-first k-d leaf walk.
//
// Every static-ranking query, in memory or out of core, is answered by
// one walk over an exact-median k-d tree (data/kd_tree.h) whose
// directory — every node's bounding box and minimum rank — stays in
// memory. The walk keeps a min-heap of nodes keyed by minimum rank and
// skips any node whose box misses the compiled bounds. A leaf's rows are
// in rank order and carry their ranks, so its scan stops at the rank of
// the (k+1)-th best match held, and the walk stops once the next node's
// minimum rank is past it: a box query reads only the few leaves its box
// touches.
//
// Leaves come from one of two sources, resolved once per leaf, never per
// row: the in-memory data::KdLeaves hand out a view into their flat
// arrays, and a data::PagedTable pins the leaf's page through its
// BufferPool, so the query working set stays inside the pool budget and
// every byte read has passed its CRC. Either way the leaf is the same
// DataPageView — ids, ranks, attribute-major value runs — which is the
// layout the fused AVX-512/scalar LeafMatchKernel consumes (selective
// queries, one pass over the whole leaf), while broad queries and leaves
// cut short by the rank threshold run chunked SelectInterval /
// RefineInterval passes. Matches are copied out while the leaf is held
// and merged by rank, so both sources return bit-identical answers for
// the same table and ranking.

#ifndef HDSKY_INTERFACE_EXEC_LEAF_WALK_H_
#define HDSKY_INTERFACE_EXEC_LEAF_WALK_H_

#include <vector>

#include "common/status.h"
#include "data/kd_tree.h"
#include "data/paged_table.h"
#include "interface/exec/kernels.h"
#include "interface/hidden_database.h"

namespace hdsky {
namespace interface {
namespace exec {

/// Answers the conjunctive top-k query compiled into `bounds`: fills
/// out->ids with the first k matching row ids in rank order,
/// materializes out->tuples, and sets out->overflow when a (k+1)-th
/// match exists. Thread-safe: concurrent calls share only the leaves
/// (and, paged, the buffer pool); scratch is thread_local.
///
/// In memory this never fails.
common::Status ExecuteTopK(const data::KdLeaves& leaves,
                           const std::vector<AttrBound>& bounds, int k,
                           QueryResult* out);

/// Out of core, it fails (leaving *out* unspecified) only on storage
/// errors — a page that no longer passes its CRC or its leaf's checks,
/// or two matches of one rank from different pages.
common::Status ExecuteTopK(const data::PagedTable& table,
                           const std::vector<AttrBound>& bounds, int k,
                           QueryResult* out);

}  // namespace exec
}  // namespace interface
}  // namespace hdsky

#endif  // HDSKY_INTERFACE_EXEC_LEAF_WALK_H_
