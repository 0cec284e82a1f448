#include "data/block_file.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <numeric>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/crc32c.h"
#include "common/fs_util.h"
#include "data/encoding.h"

namespace hdsky {
namespace data {

using common::Result;
using common::Status;

namespace {

constexpr char kMagic[8] = {'H', 'D', 'S', 'K', 'Y', 'B', 'F', '1'};
constexpr size_t kMaxHeaderBytes = size_t{1} << 20;
constexpr size_t kExtentBytes = 12;  // u64 offset + u32 stored bytes

/// Stored bytes of one directory node: i64 min rank, i32 left, i32
/// right, i32 page, u32 rows, then the 2m-value box.
size_t NodeBytes(int num_attrs) {
  return 24 + 2 * static_cast<size_t>(num_attrs) * sizeof(Value);
}

size_t AlignPage(size_t bytes) {
  return (bytes + kBlockFileAlign - 1) / kBlockFileAlign * kBlockFileAlign;
}

template <typename T>
void Put(T v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutString(const std::string& s, std::string* out) {
  Put(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

/// Bounds-checked sequential reader over header or directory bytes.
class ByteReader {
 public:
  ByteReader(const uint8_t* base, size_t limit)
      : base_(base), limit_(limit) {}

  bool Raw(void* out, size_t len) {
    if (len > limit_ - pos_) return false;
    std::memcpy(out, base_ + pos_, len);
    pos_ += len;
    return true;
  }
  template <typename T>
  bool Get(T* v) {
    return Raw(v, sizeof(*v));
  }
  bool String(std::string* s) {
    uint32_t len = 0;
    if (!Get(&len) || len > limit_ - pos_) return false;
    s->assign(reinterpret_cast<const char*>(base_ + pos_), len);
    pos_ += len;
    return true;
  }
  size_t pos() const { return pos_; }

 private:
  const uint8_t* base_;
  size_t limit_;
  size_t pos_ = 0;
};

Status Corrupt(const std::string& path, const std::string& why) {
  return Status::IOError(path + ": " + why);
}

Status PreadExact(int fd, uint64_t offset, size_t len, uint8_t* out,
                  const std::string& path) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pread(fd, out + done, len - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pread " + path + ": " + std::strerror(errno));
    }
    if (n == 0) return Corrupt(path, "unexpected EOF");
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Header fields after the magic and version, in file order.
std::string EncodeHeader(uint32_t rows_per_block, uint32_t num_attrs,
                         Compression compression, uint64_t num_rows,
                         uint64_t num_pages, uint64_t num_nodes,
                         uint64_t dir_offset, const std::string& ranking,
                         const Schema& schema) {
  std::string h;
  h.append(kMagic, sizeof(kMagic));
  Put(kBlockFileVersion, &h);
  Put(rows_per_block, &h);
  Put(num_attrs, &h);
  Put(static_cast<uint32_t>(compression), &h);
  Put(num_rows, &h);
  Put(num_pages, &h);
  Put(num_nodes, &h);
  Put(dir_offset, &h);
  PutString(ranking, &h);
  PutString(schema.Serialize(), &h);
  Put(common::Crc32c(h), &h);
  return h;
}

/// Streams one page per leaf to `out` as the k-d build completes the
/// leaves (the BuildKdTree leaf callback), and records their extents.
class PageWriter {
 public:
  PageWriter(common::AtomicFileWriter* out, int num_attrs,
             Compression compression, const std::vector<TupleId>& ids,
             const int64_t* ranks, const Value* rows,
             BlockFileWriteStats* stats)
      : out_(out),
        m_(num_attrs),
        compression_(compression),
        ids_(ids),
        ranks_(ranks),
        rows_(rows),
        stats_(stats) {}

  /// Writes leaf [begin, end): its rows are in rank order and its values
  /// attribute-major, so each run is contiguous.
  Status WriteLeaf(int64_t begin, int64_t end) {
    const size_t len = static_cast<size_t>(end - begin);
    const int64_t* ranks = ranks_ + begin;
    const Value* values = rows_ + static_cast<size_t>(begin) * m_;
    page_.assign(kPageHeaderBytes, 0);
    run_.resize(len);
    for (size_t i = 0; i < len; ++i) {
      run_[i] = ids_[static_cast<size_t>(ranks[i])];
    }
    AppendRun(run_.data(), len, 0);
    AppendRun(ranks, len, 1);
    for (size_t a = 0; a < static_cast<size_t>(m_); ++a) {
      AppendRun(values + a * len, len, 2 + a);
    }
    const size_t stored = page_.size();
    const uint32_t crc = common::Crc32c(std::string_view(
        reinterpret_cast<const char*>(page_.data()) + kPageHeaderBytes,
        stored - kPageHeaderBytes));
    const uint32_t count = static_cast<uint32_t>(len);
    std::memcpy(page_.data(), &crc, 4);
    std::memcpy(page_.data() + 4, &count, 4);
    extents_.push_back(BlockFile::Extent{out_->bytes_appended(),
                                         static_cast<uint32_t>(stored)});
    return out_->Append(page_.data(), page_.size());
  }

  /// The directory: page extents, the node array, its CRC.
  std::string Directory(const KdTree& tree) const {
    std::string dir;
    for (const BlockFile::Extent& e : extents_) {
      Put(e.offset, &dir);
      Put(e.bytes, &dir);
    }
    for (int32_t i = 0; i < tree.num_nodes(); ++i) {
      const KdNode& n = tree.node(i);
      Put(n.min_rank, &dir);
      Put(n.left, &dir);
      Put(n.right, &dir);
      Put(n.page, &dir);
      Put(n.rows, &dir);
      dir.append(reinterpret_cast<const char*>(tree.node_box(i)),
                 2 * static_cast<size_t>(m_) * sizeof(Value));
    }
    Put(common::Crc32c(dir), &dir);
    return dir;
  }

  size_t num_pages() const { return extents_.size(); }

 private:
  void AppendRun(const Value* values, size_t n, size_t column) {
    const size_t bytes = compression_ == Compression::kAuto
                             ? EncodeRun(values, n, &page_)
                             : EncodeRunAs(Encoding::kRaw, values, n, &page_);
    stats_->columns[column].raw_bytes += n * sizeof(Value);
    stats_->columns[column].encoded_bytes += bytes;
  }

  common::AtomicFileWriter* out_;
  const int m_;
  const Compression compression_;
  const std::vector<TupleId>& ids_;
  const int64_t* ranks_;
  const Value* rows_;
  BlockFileWriteStats* stats_;
  std::vector<BlockFile::Extent> extents_;
  // Scratch reused across leaves.
  std::vector<Value> run_;
  std::vector<uint8_t> page_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Writer.

Result<BlockFileWriteStats> WriteBlockFile(const std::string& path,
                                           const Schema& schema,
                                           const std::string& ranking,
                                           const BlockFileOptions& options,
                                           const std::vector<TupleId>& ids,
                                           std::vector<Value> rows) {
  if (options.rows_per_block < 1 ||
      options.rows_per_block > (int64_t{1} << 20)) {
    return Status::InvalidArgument("rows_per_block out of range");
  }
  const int m = schema.num_attributes();
  if (m < 1) return Status::InvalidArgument("schema has no attributes");
  if (rows.size() != ids.size() * static_cast<size_t>(m)) {
    return Status::InvalidArgument("row values do not match the ids");
  }
  if (ids.size() > (size_t{1} << 31) - 1) {
    return Status::InvalidArgument("too many rows for one block file");
  }
  const std::string probe =
      EncodeHeader(0, 0, options.compression, 0, 0, 0, 0, ranking, schema);
  if (probe.size() > kMaxHeaderBytes) {
    return Status::InvalidArgument("schema too large for the file header");
  }
  HDSKY_ASSIGN_OR_RETURN(std::unique_ptr<common::AtomicFileWriter> out,
                         common::AtomicFileWriter::Create(path));
  // Reserve the header; it is back-patched once the directory's offset
  // is known (every header field is fixed-width but the two strings).
  const std::vector<uint8_t> reserved(AlignPage(probe.size()), 0);
  HDSKY_RETURN_IF_ERROR(out->Append(reserved.data(), reserved.size()));

  BlockFileWriteStats stats;
  stats.rows = static_cast<int64_t>(ids.size());
  stats.columns.resize(static_cast<size_t>(m) + 2);
  // The rows arrive in rank order, so row r's key is its rank r.
  std::vector<int64_t> ranks(ids.size());
  std::iota(ranks.begin(), ranks.end(), int64_t{0});
  PageWriter pages(out.get(), m, options.compression, ids, ranks.data(),
                   rows.data(), &stats);
  KdTree tree;
  HDSKY_ASSIGN_OR_RETURN(
      stats.kd_depth,
      BuildKdTree(m, options.rows_per_block,
                  static_cast<int64_t>(ids.size()), ranks.data(),
                  rows.data(),
                  [&](int64_t begin, int64_t end) {
                    return pages.WriteLeaf(begin, end);
                  },
                  &tree));
  const uint64_t dir_offset = out->bytes_appended();
  const std::string dir = pages.Directory(tree);
  HDSKY_RETURN_IF_ERROR(out->Append(dir.data(), dir.size()));
  const std::string header = EncodeHeader(
      static_cast<uint32_t>(options.rows_per_block),
      static_cast<uint32_t>(m), options.compression, ids.size(),
      pages.num_pages(), tree.nodes.size(), dir_offset, ranking, schema);
  HDSKY_RETURN_IF_ERROR(out->WriteAt(0, header.data(), header.size()));
  stats.data_pages = static_cast<int64_t>(pages.num_pages());
  stats.kd_nodes = static_cast<int64_t>(tree.nodes.size());
  stats.file_bytes = out->bytes_appended();
  HDSKY_RETURN_IF_ERROR(out->Commit());
  return stats;
}

// ---------------------------------------------------------------------------
// Reader.

Result<std::unique_ptr<BlockFile>> BlockFile::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound(path + " does not exist");
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  auto f = std::unique_ptr<BlockFile>(new BlockFile());
  f->path_ = path;
  f->fd_ = fd;  // closed by ~BlockFile from here on
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return Status::IOError("fstat " + path + ": " + std::strerror(errno));
  }
  const uint64_t file_bytes = static_cast<uint64_t>(st.st_size);
  if (file_bytes < kBlockFileAlign) {
    return Corrupt(path, "too small to hold a header page");
  }
  f->file_bytes_ = file_bytes;

  const size_t hdr_len = static_cast<size_t>(
      std::min<uint64_t>(file_bytes, kMaxHeaderBytes));
  std::vector<uint8_t> hdr(hdr_len);
  HDSKY_RETURN_IF_ERROR(PreadExact(fd, 0, hdr_len, hdr.data(), path));

  ByteReader r(hdr.data(), hdr_len);
  char magic[8];
  uint32_t version = 0;
  if (!r.Raw(magic, sizeof(magic)) || !r.Get(&version)) {
    return Corrupt(path, "short header");
  }
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Corrupt(path, "bad magic (not a block file)");
  }
  if (version == 1 || version == 2) {
    return Status::Unsupported(
        path + ": block file format v" + std::to_string(version) +
        " (rank-ordered pages) is no longer read; re-pack it with "
        "hdsky_pack to write format v" +
        std::to_string(kBlockFileVersion));
  }
  if (version != kBlockFileVersion) {
    return Corrupt(path, "unsupported version " + std::to_string(version));
  }
  uint32_t rows_per_block = 0, num_attrs = 0, compression = 0;
  uint64_t num_rows = 0, num_pages = 0, num_nodes = 0, dir_offset = 0;
  std::string ranking, schema_line;
  const bool ok = r.Get(&rows_per_block) && r.Get(&num_attrs) &&
                  r.Get(&compression) && r.Get(&num_rows) &&
                  r.Get(&num_pages) && r.Get(&num_nodes) &&
                  r.Get(&dir_offset) && r.String(&ranking) &&
                  r.String(&schema_line);
  if (!ok) return Corrupt(path, "short header");
  const uint32_t header_crc = common::Crc32c(std::string_view(
      reinterpret_cast<const char*>(hdr.data()), r.pos()));
  uint32_t stored_crc = 0;
  if (!r.Get(&stored_crc)) return Corrupt(path, "short header");
  if (header_crc != stored_crc) return Corrupt(path, "header CRC mismatch");

  if (rows_per_block < 1 || rows_per_block > (1u << 20) || num_attrs < 1 ||
      num_attrs > (1u << 16) || compression > 1) {
    return Corrupt(path, "implausible geometry");
  }
  // A full binary tree over the leaves, one leaf per page, no page
  // over rows_per_block rows.
  const bool empty = num_rows == 0;
  if (empty ? (num_pages != 0 || num_nodes != 0)
            : (num_pages < (num_rows + rows_per_block - 1) / rows_per_block ||
               num_pages > num_rows || num_pages > (uint64_t{1} << 30) ||
               num_nodes != 2 * num_pages - 1)) {
    return Corrupt(path, "row/page/node count mismatch");
  }
  HDSKY_ASSIGN_OR_RETURN(f->schema_, Schema::Deserialize(schema_line));
  if (f->schema_.num_attributes() != static_cast<int>(num_attrs)) {
    return Corrupt(path, "schema/attribute count mismatch");
  }
  f->ranking_ = std::move(ranking);
  f->compression_ = static_cast<Compression>(compression);
  f->rows_per_block_ = rows_per_block;
  f->num_attrs_ = static_cast<int>(num_attrs);
  f->num_rows_ = static_cast<int64_t>(num_rows);

  // The directory ends the file; every extent must lie between the
  // header and the directory, so no read can leave the file.
  const uint64_t data_start = AlignPage(r.pos());
  const uint64_t node_bytes = NodeBytes(f->num_attrs_);
  const uint64_t dir_bytes =
      num_pages * kExtentBytes + num_nodes * node_bytes + 4;
  if (dir_offset < data_start || dir_offset > file_bytes ||
      file_bytes - dir_offset != dir_bytes) {
    return Corrupt(path, "truncated (directory does not match geometry)");
  }
  std::vector<uint8_t> dir(static_cast<size_t>(dir_bytes));
  HDSKY_RETURN_IF_ERROR(
      PreadExact(fd, dir_offset, dir.size(), dir.data(), path));
  uint32_t dir_crc = 0;
  std::memcpy(&dir_crc, dir.data() + dir.size() - 4, 4);
  if (common::Crc32c(std::string_view(
          reinterpret_cast<const char*>(dir.data()), dir.size() - 4)) !=
      dir_crc) {
    return Corrupt(path, "directory CRC mismatch");
  }
  ByteReader d(dir.data(), dir.size() - 4);
  f->extents_.resize(static_cast<size_t>(num_pages));
  uint64_t prev_end = data_start;
  for (Extent& e : f->extents_) {
    d.Get(&e.offset);
    d.Get(&e.bytes);
    if (e.offset < prev_end ||
        e.offset > dir_offset || e.bytes < kPageHeaderBytes ||
        e.bytes > dir_offset - e.offset) {
      return Corrupt(path, "page extent out of bounds");
    }
    prev_end = e.offset + e.bytes;
  }
  const size_t box_values = 2 * static_cast<size_t>(num_attrs);
  KdTree& tree = f->tree_;
  tree.num_attrs = f->num_attrs_;
  tree.nodes.resize(static_cast<size_t>(num_nodes));
  tree.boxes.resize(static_cast<size_t>(num_nodes) * box_values);
  for (size_t i = 0; i < tree.nodes.size(); ++i) {
    KdNode& n = tree.nodes[i];
    d.Get(&n.min_rank);
    d.Get(&n.left);
    d.Get(&n.right);
    d.Get(&n.page);
    d.Get(&n.rows);
    d.Raw(tree.boxes.data() + i * box_values, box_values * sizeof(Value));
  }
  HDSKY_RETURN_IF_ERROR(f->ValidateTree());
  return f;
}

Status BlockFile::ValidateTree() {
  const int32_t n = tree_.num_nodes();
  const int64_t pages = num_data_pages();
  page_leaf_.assign(static_cast<size_t>(pages), -1);
  if (n == 0) return Status::OK();
  if (tree_.nodes[0].rows != static_cast<uint64_t>(num_rows_) ||
      tree_.nodes[0].min_rank != 0) {
    return Corrupt(path_, "k-d root does not cover the rows from rank 0");
  }
  std::vector<uint8_t> reached(static_cast<size_t>(n), 0);
  std::vector<int32_t> stack = {0};
  std::vector<int64_t> leaf_min_ranks;
  reached[0] = 1;
  int32_t reached_count = 1;
  while (!stack.empty()) {
    const int32_t i = stack.back();
    stack.pop_back();
    const KdNode& node = tree_.node(i);
    const Value* box = tree_.node_box(i);
    for (int a = 0; a < num_attrs_; ++a) {
      if (box[2 * a] > box[2 * a + 1]) {
        return Corrupt(path_, "k-d node " + std::to_string(i) +
                                  " has an empty box");
      }
    }
    if (node.left < 0 || node.right < 0) {
      if (node.left != -1 || node.right != -1 || node.page < 0 ||
          node.page >= pages) {
        return Corrupt(path_, "k-d leaf " + std::to_string(i) +
                                  " is malformed or its page is out of "
                                  "range");
      }
      int32_t& owner = page_leaf_[static_cast<size_t>(node.page)];
      if (owner != -1) {
        return Corrupt(path_, "data page " + std::to_string(node.page) +
                                  " belongs to two k-d leaves");
      }
      owner = i;
      if (node.rows < 1 || node.rows > rows_per_block_ ||
          node.min_rank < 0 ||
          node.min_rank > num_rows_ - static_cast<int64_t>(node.rows)) {
        return Corrupt(path_, "k-d leaf " + std::to_string(i) +
                                  " has an impossible row count or rank");
      }
      leaf_min_ranks.push_back(node.min_rank);
      continue;
    }
    if (node.page != -1) {
      return Corrupt(path_, "internal k-d node " + std::to_string(i) +
                                " claims a page");
    }
    uint64_t child_rows = 0;
    int64_t child_min = INT64_MAX;
    for (const int32_t c : {node.left, node.right}) {
      // Children lie after their parent, so the walk cannot cycle.
      if (c <= i || c >= n || reached[static_cast<size_t>(c)] != 0) {
        return Corrupt(path_, "k-d node " + std::to_string(i) +
                                  " has a child out of range or "
                                  "reached twice");
      }
      reached[static_cast<size_t>(c)] = 1;
      ++reached_count;
      stack.push_back(c);
      const KdNode& child = tree_.node(c);
      child_rows += child.rows;
      child_min = std::min(child_min, child.min_rank);
      const Value* cbox = tree_.node_box(c);
      for (int a = 0; a < num_attrs_; ++a) {
        if (cbox[2 * a] < box[2 * a] || cbox[2 * a + 1] > box[2 * a + 1]) {
          return Corrupt(path_, "k-d node " + std::to_string(i) +
                                    "'s box does not contain its child's");
        }
      }
    }
    if (child_rows != node.rows || child_min != node.min_rank) {
      return Corrupt(path_, "k-d node " + std::to_string(i) +
                                " disagrees with its children's rows or "
                                "minimum rank");
    }
  }
  if (reached_count != n) {
    return Corrupt(path_, "k-d directory has unreachable nodes");
  }
  for (const int32_t owner : page_leaf_) {
    if (owner < 0) return Corrupt(path_, "a data page has no k-d leaf");
  }
  std::sort(leaf_min_ranks.begin(), leaf_min_ranks.end());
  if (std::adjacent_find(leaf_min_ranks.begin(), leaf_min_ranks.end()) !=
      leaf_min_ranks.end()) {
    return Corrupt(path_, "two k-d leaves share a minimum rank");
  }
  return Status::OK();
}

BlockFile::~BlockFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status BlockFile::DecodePage(int64_t page_id, const uint8_t* raw,
                             size_t raw_len, uint8_t* frame) const {
  if (page_id < 0 || page_id >= num_data_pages()) {
    return Corrupt(path_, "page id out of range");
  }
  const std::string page = "page " + std::to_string(page_id);
  const int32_t leaf_id = page_leaf_[static_cast<size_t>(page_id)];
  const KdNode& leaf = tree_.node(leaf_id);
  if (raw_len != extent(page_id).bytes || raw_len < kPageHeaderBytes) {
    return Corrupt(path_, page + " fetched with wrong extent");
  }
  uint32_t crc, count;
  std::memcpy(&crc, raw, 4);
  std::memcpy(&count, raw + 4, 4);
  // The directory fixes each page's row count, so a flipped count field
  // cannot redirect the decoder.
  if (count != leaf.rows) {
    return Corrupt(path_, page + " has wrong row count");
  }
  // The CRC covers the stored payload, so corrupt bytes are caught
  // before the decoder touches them; the decoder's structural checks
  // and the rank/box checks below then guard against a wrong but
  // CRC-consistent page.
  const size_t stored = raw_len - kPageHeaderBytes;
  if (common::Crc32c(std::string_view(
          reinterpret_cast<const char*>(raw + kPageHeaderBytes), stored)) !=
      crc) {
    return Corrupt(path_, page + " CRC mismatch");
  }
  std::memcpy(frame, raw, kPageHeaderBytes);
  Value* dst = reinterpret_cast<Value*>(frame + kPageHeaderBytes);
  const uint8_t* p = raw + kPageHeaderBytes;
  size_t remaining = stored;
  for (int r = 0; r < num_attrs_ + 2; ++r) {
    size_t consumed = 0;
    const Status st = DecodeRun(p, remaining, count, dst, &consumed);
    if (!st.ok()) return Corrupt(path_, page + ": " + st.message());
    p += consumed;
    remaining -= consumed;
    dst += count;
  }
  if (remaining != 0) {
    return Corrupt(path_, page + " has trailing encoded bytes");
  }
  const DataPageView v = data_page(frame);
  if (v.ranks[0] != leaf.min_rank || v.ranks[v.rows - 1] >= num_rows_) {
    return Corrupt(path_, page + " ranks disagree with its k-d leaf");
  }
  for (int64_t i = 1; i < v.rows; ++i) {
    if (v.ranks[i] <= v.ranks[i - 1]) {
      return Corrupt(path_, page + " ranks are not strictly ascending");
    }
  }
  const Value* box = tree_.node_box(leaf_id);
  for (int a = 0; a < num_attrs_; ++a) {
    const Value* run = v.values + static_cast<int64_t>(a) * v.rows;
    for (int64_t i = 0; i < v.rows; ++i) {
      if (run[i] < box[2 * a] || run[i] > box[2 * a + 1]) {
        return Corrupt(path_, page + " holds a value outside its k-d box");
      }
    }
  }
  return Status::OK();
}

}  // namespace data
}  // namespace hdsky
