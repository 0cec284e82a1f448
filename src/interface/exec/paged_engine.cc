#include "interface/exec/paged_engine.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "data/block_file.h"
#include "data/buffer_pool.h"

namespace hdsky {
namespace interface {
namespace exec {

using data::BlockFile;
using data::BufferPool;
using data::TupleId;
using data::Value;
using common::Status;

namespace {

/// Per-thread reusable buffers, mirroring VectorEngine's discipline:
/// steady-state execution allocates only the QueryResult handed back.
struct Scratch {
  /// Pending k-d nodes as (minimum rank, node id), a min-heap.
  std::vector<std::pair<int64_t, int32_t>> heap;
  std::vector<int32_t> sel;
  // Candidates: every match taken from a scanned leaf.
  std::vector<TupleId> ids;
  std::vector<int64_t> ranks;
  std::vector<Value> values;  // m per candidate
  /// Indexes of the best candidates so far, rank-ascending, at most k+1.
  std::vector<int32_t> best;
};

Scratch& LocalScratch() {
  thread_local Scratch scratch;
  return scratch;
}

/// True when the box (min/max per attribute) cannot intersect some
/// bound.
bool Misses(const Value* box, const std::vector<AttrBound>& bounds) {
  for (const AttrBound& bd : bounds) {
    if (bd.lo > box[2 * bd.attr + 1] || bd.hi < box[2 * bd.attr]) {
      return true;
    }
  }
  return false;
}

/// Scans one pinned leaf page and merges its matches into the best
/// k+1. Rows sit in rank order, so only the rows ranked above
/// `threshold` (the current (k+1)-th best) and, of those, the first
/// `want` matches can enter. Fails if a match has the rank of one
/// already held: Open and DecodePage cannot see a rank repeated across
/// two pages without decoding every page, but the merge meets any such
/// pair that would share an answer.
Status ScanLeaf(const BlockFile& file, const uint8_t* frame,
                const std::vector<AttrBound>& bounds, int64_t threshold,
                int64_t want, Scratch* scr) {
  const BlockFile::DataPageView view = file.data_page(frame);
  const int64_t rows = view.rows;
  const int64_t limit =
      std::lower_bound(view.ranks, view.ranks + rows, threshold) -
      view.ranks;
  scr->sel.resize(static_cast<size_t>(rows));
  int32_t* sel = scr->sel.data();
  int64_t count = 0;
  if (bounds.empty()) {
    count = std::min(limit, want);
    for (int32_t i = 0; i < count; ++i) sel[i] = i;
  } else if (limit == rows && 4 * want < rows) {
    // Selective query over the whole page: one fused pass.
    count = std::min<int64_t>(
        LeafMatchKernel()(view.values, rows, bounds.data(),
                          static_cast<int>(bounds.size()), sel),
        want);
  } else {
    // Broad query, or a page cut short by the threshold: adaptive chunks
    // over [0, limit), stopping at `want` matches.
    int64_t chunk = std::max<int64_t>(32, 4 * want);
    for (int64_t cb = 0; cb < limit && count < want;
         cb += chunk, chunk = std::min<int64_t>(chunk * 2, 1024)) {
      const int32_t n =
          static_cast<int32_t>(std::min<int64_t>(chunk, limit - cb));
      int32_t c = SelectInterval(
          view.values + static_cast<int64_t>(bounds[0].attr) * rows + cb,
          n, bounds[0], sel + count);
      for (size_t j = 1; j < bounds.size() && c > 0; ++j) {
        c = RefineInterval(
            view.values + static_cast<int64_t>(bounds[j].attr) * rows + cb,
            bounds[j], sel + count, c);
      }
      // Chunk positions are chunk-relative; rebase and clip to want.
      c = static_cast<int32_t>(std::min<int64_t>(c, want - count));
      for (int32_t i = 0; i < c; ++i) {
        sel[count + i] += static_cast<int32_t>(cb);
      }
      count += c;
    }
  }
  if (count == 0) return Status::OK();

  const size_t m = static_cast<size_t>(file.num_attributes());
  const size_t first = scr->ids.size();
  scr->ids.resize(first + static_cast<size_t>(count));
  scr->ranks.resize(first + static_cast<size_t>(count));
  scr->values.resize((first + static_cast<size_t>(count)) * m);
  TupleId* ids = scr->ids.data() + first;
  int64_t* ranks = scr->ranks.data() + first;
  Value* values = scr->values.data() + first * m;
  for (int64_t i = 0; i < count; ++i) {
    ids[i] = view.ids[sel[i]];
    ranks[i] = view.ranks[sel[i]];
  }
  for (size_t a = 0; a < m; ++a) {
    const Value* run = view.values + static_cast<int64_t>(a) * rows;
    for (int64_t i = 0; i < count; ++i) {
      values[static_cast<size_t>(i) * m + a] = run[sel[i]];
    }
  }
  // Both runs are rank-ascending: merge from the back, in place, keeping
  // the first `want`. Work is proportional to the entries that move, not
  // to k. Equal ranks from the two runs always meet in one comparison.
  std::vector<int32_t>& best = scr->best;
  const auto rank_of = [&](int32_t cand) {
    return scr->ranks[static_cast<size_t>(cand)];
  };
  const int64_t b = static_cast<int64_t>(best.size());
  const int64_t keep = std::min(b + count, want);
  int64_t i = b - 1;
  int64_t j = count - 1;
  const int32_t base = static_cast<int32_t>(first);
  bool repeated = false;
  // True when held entry i has a larger (worse) rank than candidate j.
  const auto held_is_worse = [&] {
    const int64_t held = rank_of(best[static_cast<size_t>(i)]);
    const int64_t cand = rank_of(base + static_cast<int32_t>(j));
    repeated |= held == cand;
    return held > cand;
  };
  for (int64_t drop = b + count - keep; drop > 0; --drop) {
    if (j < 0 || (i >= 0 && held_is_worse())) {
      --i;
    } else {
      --j;
    }
  }
  best.resize(static_cast<size_t>(keep));
  for (int64_t pos = keep - 1; j >= 0; --pos) {
    if (i >= 0 && held_is_worse()) {
      best[static_cast<size_t>(pos)] = best[static_cast<size_t>(i--)];
    } else {
      best[static_cast<size_t>(pos)] = base + static_cast<int32_t>(j--);
    }
  }
  if (repeated) {
    return Status::IOError(file.path() + ": a rank appears on two pages");
  }
  return Status::OK();
}

}  // namespace

PagedEngine::PagedEngine(const data::PagedTable* table) : table_(table) {}

data::BufferPool::Stats PagedEngine::pool_stats() const {
  return table_->pool_stats();
}

Status PagedEngine::ExecuteTopK(const std::vector<AttrBound>& bounds,
                                int k, QueryResult* out) const {
  const BlockFile& file = table_->file();
  BufferPool* pool = table_->pool();
  Scratch& scr = LocalScratch();
  scr.heap.clear();
  scr.ids.clear();
  scr.ranks.clear();
  scr.values.clear();
  scr.best.clear();
  const int64_t want = static_cast<int64_t>(k) + 1;
  const int num_attrs = file.num_attributes();
  const auto by_min_rank = std::greater<std::pair<int64_t, int32_t>>();

  // Best-first by minimum rank: a node's rows are all ranked at or
  // below its minimum, so once the next node's minimum is past the
  // (k+1)-th best match held, nothing left can enter the answer.
  int64_t threshold = std::numeric_limits<int64_t>::max();
  if (file.num_nodes() > 0 && !Misses(file.node_box(0), bounds)) {
    scr.heap.emplace_back(file.node(0).min_rank, 0);
  }
  while (!scr.heap.empty()) {
    std::pop_heap(scr.heap.begin(), scr.heap.end(), by_min_rank);
    const auto [min_rank, top] = scr.heap.back();
    scr.heap.pop_back();
    if (min_rank >= threshold) break;
    // Descend without the heap round trip: the child holding the node's
    // minimum rank is what the heap would hand back next anyway.
    int32_t id = top;
    while (id >= 0 && file.node(id).left >= 0) {
      const BlockFile::KdNode& node = file.node(id);
      id = -1;
      for (const int32_t child : {node.left, node.right}) {
        if (Misses(file.node_box(child), bounds)) continue;
        const int64_t child_min = file.node(child).min_rank;
        if (child_min == node.min_rank) {
          id = child;
        } else if (child_min < threshold) {
          scr.heap.emplace_back(child_min, child);
          std::push_heap(scr.heap.begin(), scr.heap.end(), by_min_rank);
        }
      }
    }
    if (id < 0) continue;
    HDSKY_ASSIGN_OR_RETURN(
        BufferPool::PageRef ref,
        pool->Pin(file.node(id).page));
    HDSKY_RETURN_IF_ERROR(
        ScanLeaf(file, ref.data(), bounds, threshold, want, &scr));
    if (static_cast<int64_t>(scr.best.size()) == want) {
      threshold = scr.ranks[static_cast<size_t>(scr.best.back())];
    }
  }

  out->overflow = static_cast<int64_t>(scr.best.size()) > k;
  const size_t n =
      out->overflow ? static_cast<size_t>(k) : scr.best.size();
  out->ids.resize(n);
  out->tuples.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t c = static_cast<size_t>(scr.best[i]);
    out->ids[i] = scr.ids[c];
    data::Tuple& t = out->tuples[i];
    t.assign(scr.values.begin() +
                 static_cast<std::ptrdiff_t>(c * static_cast<size_t>(num_attrs)),
             scr.values.begin() + static_cast<std::ptrdiff_t>(
                                      (c + 1) * static_cast<size_t>(num_attrs)));
  }
  return Status::OK();
}

}  // namespace exec
}  // namespace interface
}  // namespace hdsky
