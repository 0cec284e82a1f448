// Out-of-core top-k query execution over a paged block file.
//
// The paged counterpart of exec::VectorEngine. A format-v3 file
// (data/block_file.h) clusters rows into the leaf pages of a k-d tree
// whose directory — every node's bounding box and minimum rank — stays
// in memory. ExecuteTopK walks that tree best-first: a min-heap of nodes
// keyed by minimum rank, skipping any node whose box misses the compiled
// bounds. Only leaf pages are pinned, through the BufferPool, so the
// query working set stays inside the pool budget and every byte read
// has passed its CRC. A leaf's rows are in rank order and carry their
// ranks, so its scan stops at the rank of the (k+1)-th best match held,
// and the walk stops once the next node's minimum rank is past it: a box
// query reads only the few pages its box touches.
//
// The kernels are VectorEngine's, unchanged: a page's attribute-major
// runs are exactly the layout the fused AVX-512/scalar LeafMatchKernel
// consumes (selective queries, one pass over the whole page), while
// broad queries and pages cut short by the rank threshold run the same
// chunked SelectInterval/RefineInterval loop as VectorEngine. Matches
// are copied out while the page is pinned and merged by rank; results
// are bit-identical to the in-memory engine over the same data and
// ranking.

#ifndef HDSKY_INTERFACE_EXEC_PAGED_ENGINE_H_
#define HDSKY_INTERFACE_EXEC_PAGED_ENGINE_H_

#include <vector>

#include "common/status.h"
#include "data/paged_table.h"
#include "interface/exec/kernels.h"
#include "interface/hidden_database.h"

namespace hdsky {
namespace interface {
namespace exec {

class PagedEngine {
 public:
  /// `table` must outlive the engine. Thread-safe: concurrent
  /// ExecuteTopK calls share the buffer pool and nothing else.
  explicit PagedEngine(const data::PagedTable* table);

  /// Answers the conjunctive top-k query compiled into `bounds`: fills
  /// out->ids with the first k matching row ids in rank order,
  /// materializes out->tuples, and sets out->overflow when a (k+1)-th
  /// match exists. Fails (leaving *out* unspecified) only on storage
  /// errors — a page that no longer passes its CRC or its leaf's
  /// checks, or two matches of one rank from different pages.
  common::Status ExecuteTopK(const std::vector<AttrBound>& bounds, int k,
                             QueryResult* out) const;

  /// The engine's I/O counters: a snapshot of the underlying pool's
  /// hit/miss/eviction/bytes-read stats (the engine performs
  /// no I/O outside the pool, so these are exactly its costs).
  data::BufferPool::Stats pool_stats() const;

 private:
  const data::PagedTable* table_;
};

}  // namespace exec
}  // namespace interface
}  // namespace hdsky

#endif  // HDSKY_INTERFACE_EXEC_PAGED_ENGINE_H_
