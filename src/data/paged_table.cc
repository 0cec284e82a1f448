#include "data/paged_table.h"

#include "data/table.h"

namespace hdsky {
namespace data {

using common::Result;

Result<std::unique_ptr<PagedTable>> PagedTable::Open(
    const std::string& path, const PagedTableOptions& options) {
  HDSKY_ASSIGN_OR_RETURN(std::unique_ptr<BlockFile> file,
                         BlockFile::Open(path));
  BufferPool::Options pool_opts;
  pool_opts.budget_bytes = options.buffer_pool_bytes;
  pool_opts.read_path = options.read_path;
  auto pool = std::make_unique<BufferPool>(file.get(), pool_opts);
  return std::unique_ptr<PagedTable>(
      new PagedTable(std::move(file), std::move(pool)));
}

Result<std::unique_ptr<PagedTable>> Table::OpenPaged(
    const std::string& path, const PagedTableOptions& options) {
  return PagedTable::Open(path, options);
}

}  // namespace data
}  // namespace hdsky
