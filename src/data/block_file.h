// On-disk paged column-block file ("block file", extension .hdb): the
// out-of-core backing store for a hidden database whose rows exceed RAM.
//
// Format v3 (the only one this build reads). The file is:
//
//   offset 0                header (magic, version, geometry, ranking
//                           name, serialized schema, CRC32C), padded to
//                           a 4 KiB boundary
//   pages 0..L-1            data pages, one per leaf of an exact-median
//                           k-d tree over all rows (data/kd_split.h, the
//                           split rule KdIndex uses), in leaf order, back
//                           to back
//   directory               per-page extents {offset, stored bytes}, then
//                           the k-d node array, then a CRC32C; it ends
//                           the file
//
// A data page holds one leaf's rows in rank order (best first): an
// 8-byte prologue {u32 CRC32C of the stored payload, u32 row count},
// then m + 2 independently stored runs — the TupleIds, the rows' ranks
// (their positions in the ranking's static order, 0 = best), and one run
// per attribute. `Compression::kAuto` stores each run in the smallest of
// the data/encoding.h encodings; `kOff` stores every run raw. Decoding
// produces a *frame*: the prologue, then ids, ranks and the
// attribute-major values (values[a * rows + i]) — the layout the fused
// leaf-match kernel (interface/exec/kernels.h) consumes.
//
// The directory's node array is the k-d tree in preorder (node 0 is the
// root). Each node holds its minimum rank, its subtree's row count, its
// bounding box (per attribute min/max over its rows, NULL included —
// NULL sorts worst, so a box over NULLs has max == kNullValue), and
// either two child indices or, for a leaf, its data page. Open checks
// the directory's CRC and then its structure: children lie after their
// parent and every node is reached exactly once; the leaves map onto
// the pages one to one; every box contains its children's boxes; every
// minimum rank is the minimum of its children's, leaf minima are
// distinct ranks in [0, n) and the root's is 0. DecodePage checks each
// page against its leaf: row count, ranks strictly ascending from the
// leaf's minimum and below n, values inside the leaf's box. A directory
// that passes these checks cannot send a reader outside the file or
// into a loop; the CRCs are what vouch for its content. A rank is thus
// caught repeating inside one page or among leaf minima. A rank
// repeated across two pages would take decoding every page to see, so
// Open does not look; the paged engine's merge fails any query whose
// answer would hold both rows.
//
// Out-of-core queries (exec::PagedEngine) walk the tree best-first by
// minimum rank, skip nodes whose box misses the query, and pin only the
// leaf pages they scan, so a box query reads the few pages it touches.
//
// Files written in the retired formats (v1: rank-ordered fixed slots,
// v2: rank-ordered encoded pages, both with zone-map index levels) are
// refused with an error that asks for a re-pack: `.hdb` is a local cache
// of a dataset, not an interchange format, and `hdsky_pack` rebuilds it.
//
// All integers are host-endian. Writes go through
// common::AtomicFileWriter, so a crashed bulk load never leaves a torn
// file under the target name; torn or bit-flipped pages are caught by
// the per-page CRC at buffer-pool load time. Reading goes through a
// pluggable data::ReadPath (mmap or pread; see read_path.h) owned by the
// buffer pool — BlockFile itself parses the header and directory, keeps
// the fd, and decodes fetched bytes.

#ifndef HDSKY_DATA_BLOCK_FILE_H_
#define HDSKY_DATA_BLOCK_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/schema.h"
#include "data/value.h"

namespace hdsky {
namespace data {

inline constexpr uint32_t kBlockFileVersion = 3;
inline constexpr size_t kBlockFileAlign = 4096;
inline constexpr size_t kPageHeaderBytes = 8;  // u32 CRC + u32 count

/// Most rows per leaf page when the caller does not choose: the smallest
/// size on the measured plateau of server CPU per query (256 to 2,048
/// rows on perfbench's `rq_paged_journal`; docs/storage.md, "Choosing
/// the page size").
inline constexpr int64_t kDefaultRowsPerBlock = 256;

enum class Compression : uint8_t {
  /// Every run stored raw.
  kOff = 0,
  /// Each run in the smallest of FOR / delta / dictionary / raw.
  kAuto = 1,
};

struct BlockFileOptions {
  /// Largest leaf, in rows. The k-d build splits any larger range.
  int64_t rows_per_block = kDefaultRowsPerBlock;
  /// Physical run encoding (see Compression).
  Compression compression = Compression::kAuto;
};

/// Byte accounting filled by WriteBlockFile, surfaced by
/// `hdsky_pack --stats`. Column 0 is the TupleId run, column 1 the rank
/// run; columns 2..m+1 are the schema attributes in order.
struct BlockFileWriteStats {
  int64_t rows = 0;
  int64_t data_pages = 0;
  int64_t kd_nodes = 0;
  int kd_depth = 0;  // edges from the root to the deepest leaf
  uint64_t file_bytes = 0;
  struct Column {
    uint64_t raw_bytes = 0;      // 8 * values
    uint64_t encoded_bytes = 0;  // run headers + encoded bodies
  };
  std::vector<Column> columns;
  uint64_t raw_payload_bytes() const {
    uint64_t t = 0;
    for (const Column& c : columns) t += c.raw_bytes;
    return t;
  }
  uint64_t encoded_payload_bytes() const {
    uint64_t t = 0;
    for (const Column& c : columns) t += c.encoded_bytes;
    return t;
  }
};

/// Writes a format-v3 file at `path` through a temp file, fsync and
/// rename. `ids` lists the rows best-rank-first (ids[r] has rank r) and
/// `rows` holds their values row-major, schema.num_attributes() per row,
/// in the same order; the k-d build permutes `rows` in place. `ranking`
/// names the order (recorded in the header).
common::Result<BlockFileWriteStats> WriteBlockFile(
    const std::string& path, const Schema& schema,
    const std::string& ranking, const BlockFileOptions& options,
    const std::vector<TupleId>& ids, std::vector<Value> rows);

/// Read-side view of a block file: Open parses and validates the header
/// and the directory via pread(2), then keeps the fd and the directory.
/// Fetching page bytes is the ReadPath's job and residency / decoding /
/// eviction are the BufferPool's — everything here is immutable after
/// Open and safe to share across threads.
class BlockFile {
 public:
  static common::Result<std::unique_ptr<BlockFile>> Open(
      const std::string& path);
  ~BlockFile();

  BlockFile(const BlockFile&) = delete;
  BlockFile& operator=(const BlockFile&) = delete;

  const Schema& schema() const { return schema_; }
  const std::string& ranking_name() const { return ranking_; }
  const std::string& path() const { return path_; }
  Compression compression() const { return compression_; }
  int fd() const { return fd_; }
  int64_t num_rows() const { return num_rows_; }
  int64_t num_data_pages() const {
    return static_cast<int64_t>(extents_.size());
  }
  int num_attributes() const { return num_attrs_; }
  int64_t rows_per_block() const { return rows_per_block_; }
  /// Decoded size of a full leaf's frame (no frame exceeds this).
  size_t page_bytes() const { return FrameBytesFor(rows_per_block_); }
  uint64_t file_bytes() const { return file_bytes_; }
  /// Logical payload bytes: ids + values of every row. The out-of-core
  /// ratio in the benches is data_bytes() / pool budget.
  uint64_t data_bytes() const {
    return static_cast<uint64_t>(num_rows_) *
           static_cast<uint64_t>(num_attrs_ + 1) * sizeof(Value);
  }

  /// A k-d node of the directory. Internal nodes have left, right >= 0
  /// and page == -1; leaves have left == right == -1 and page = their
  /// data page index, the id the BufferPool pins it by.
  struct KdNode {
    int64_t min_rank;
    int32_t left;
    int32_t right;
    int32_t page;
    uint32_t rows;
  };
  int32_t num_nodes() const { return static_cast<int32_t>(nodes_.size()); }
  const KdNode& node(int32_t i) const {
    return nodes_[static_cast<size_t>(i)];
  }
  /// Node i's box: box[2a] = min, box[2a + 1] = max of attribute a.
  const Value* node_box(int32_t i) const {
    return boxes_.data() +
           static_cast<size_t>(i) * 2 * static_cast<size_t>(num_attrs_);
  }

  /// Physical location of a page's stored (possibly encoded) bytes.
  /// Data pages are indexed [0, num_data_pages()) here and below.
  struct Extent {
    uint64_t offset;
    uint32_t bytes;
  };
  Extent extent(int64_t page) const {
    return extents_[static_cast<size_t>(page)];
  }

  /// Exact decoded size of a page's frame: 8-byte prologue + ids + ranks
  /// + values (never exceeds page_bytes()).
  size_t frame_bytes(int64_t page) const {
    return FrameBytesFor(
        nodes_[static_cast<size_t>(page_leaf_[static_cast<size_t>(page)])]
            .rows);
  }

  /// Validates the fetched bytes of a page (row count from the
  /// directory, then CRC32C over the stored payload), decodes its runs
  /// into `frame` — which must hold frame_bytes(page) — and checks the
  /// decoded ranks and values against the page's leaf. Any
  /// inconsistency fails like a CRC mismatch.
  common::Status DecodePage(int64_t page, const uint8_t* raw,
                            size_t raw_len, uint8_t* frame) const;

  struct DataPageView {
    int64_t rows;
    const TupleId* ids;
    const int64_t* ranks;  // strictly ascending
    const Value* values;   // attribute-major runs: values[a * rows + i]
  };
  DataPageView data_page(const uint8_t* frame) const {
    DataPageView v;
    v.rows = static_cast<int64_t>(
        reinterpret_cast<const uint32_t*>(frame)[1]);
    v.ids = reinterpret_cast<const TupleId*>(frame + kPageHeaderBytes);
    v.ranks = reinterpret_cast<const int64_t*>(v.ids + v.rows);
    v.values = reinterpret_cast<const Value*>(v.ranks + v.rows);
    return v;
  }

 private:
  BlockFile() = default;

  size_t FrameBytesFor(int64_t rows) const {
    return kPageHeaderBytes + static_cast<size_t>(rows) *
                                  (static_cast<size_t>(num_attrs_) + 2) *
                                  sizeof(Value);
  }
  /// Structural checks of the parsed node array (see the file comment).
  common::Status ValidateTree();

  std::string path_;
  Schema schema_;
  std::string ranking_;
  int fd_ = -1;
  Compression compression_ = Compression::kAuto;
  uint64_t file_bytes_ = 0;
  int64_t rows_per_block_ = 0;
  int num_attrs_ = 0;
  int64_t num_rows_ = 0;
  std::vector<Extent> extents_;  // data page b at extents_[b]
  std::vector<KdNode> nodes_;
  std::vector<Value> boxes_;  // 2 * num_attrs_ per node
  std::vector<int32_t> page_leaf_;  // data page b -> its leaf node
};

}  // namespace data
}  // namespace hdsky

#endif  // HDSKY_DATA_BLOCK_FILE_H_
