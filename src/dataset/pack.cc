#include "dataset/pack.h"

#include <vector>

namespace hdsky {
namespace dataset {

using common::Result;
using common::Status;
using data::TupleId;
using data::Value;

Result<int64_t> PackTable(
    const data::Table& table,
    std::shared_ptr<interface::RankingPolicy> ranking,
    const std::string& path, const data::BlockFileOptions& options,
    data::BlockFileWriteStats* stats) {
  if (ranking == nullptr) {
    return Status::InvalidArgument("ranking policy must not be null");
  }
  HDSKY_RETURN_IF_ERROR(
      ranking->Bind(&table, table.schema().ranking_attributes()));
  const std::vector<TupleId>* order = ranking->static_order();
  if (order == nullptr) {
    return Status::InvalidArgument(
        "ranking '" + ranking->name() +
        "' has no static order and cannot be packed");
  }
  const int m = table.schema().num_attributes();
  std::vector<Value> rows;
  rows.reserve(order->size() * static_cast<size_t>(m));
  for (const TupleId id : *order) {
    for (int a = 0; a < m; ++a) rows.push_back(table.value(id, a));
  }
  HDSKY_ASSIGN_OR_RETURN(
      data::BlockFileWriteStats written,
      data::WriteBlockFile(path, table.schema(), ranking->name(), options,
                           *order, std::move(rows)));
  if (stats != nullptr) *stats = written;
  return written.rows;
}

}  // namespace dataset
}  // namespace hdsky
