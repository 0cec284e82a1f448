// PagedTable: an out-of-core hidden-database backing store — a BlockFile
// plus the BufferPool that bounds its resident working set. This is the
// paged counterpart of an in-memory Table for the query path: it does
// not support appends or row-at-a-time access (the data lives in the
// leaf pages of a k-d tree); TopKInterface::CreatePaged and the
// exec::PagedEngine consume it directly.

#ifndef HDSKY_DATA_PAGED_TABLE_H_
#define HDSKY_DATA_PAGED_TABLE_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "data/block_file.h"
#include "data/buffer_pool.h"

namespace hdsky {
namespace data {

struct PagedTableOptions {
  /// Buffer-pool resident budget (--buffer-pool-bytes in the tools).
  size_t buffer_pool_bytes = size_t{256} << 20;
  /// How stored bytes reach memory (--read-path in the tools).
  ReadPathKind read_path = ReadPathKind::kMmap;
};

class PagedTable {
 public:
  /// Opens a block file written by WriteBlockFile / dataset::PackTable.
  static common::Result<std::unique_ptr<PagedTable>> Open(
      const std::string& path, const PagedTableOptions& options);

  const Schema& schema() const { return file_->schema(); }
  int64_t num_rows() const { return file_->num_rows(); }
  const std::string& ranking_name() const { return file_->ranking_name(); }
  uint64_t data_bytes() const { return file_->data_bytes(); }

  const BlockFile& file() const { return *file_; }
  BufferPool* pool() const { return pool_.get(); }
  BufferPool::Stats pool_stats() const { return pool_->stats(); }

 private:
  PagedTable(std::unique_ptr<BlockFile> file,
             std::unique_ptr<BufferPool> pool)
      : file_(std::move(file)), pool_(std::move(pool)) {}

  std::unique_ptr<BlockFile> file_;
  std::unique_ptr<BufferPool> pool_;
};

}  // namespace data
}  // namespace hdsky

#endif  // HDSKY_DATA_PAGED_TABLE_H_
