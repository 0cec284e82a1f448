// Bulk load: packs an in-memory Table into an on-disk paged block file
// (data/block_file.h). Each row carries its rank in the static order of a
// ranking policy — the exact order TopKInterface would compute — so the
// paged interface's answers are bit-identical to the in-memory engine's
// over the same data. The rows are clustered into k-d leaf pages; the
// writer holds one row-major copy of the values while it builds the tree.
//
// Only static-order rankings (linear/sum, lexicographic) can be packed;
// dynamic policies (layered-random, adversarial) have no baked order
// and are rejected.

#ifndef HDSKY_DATASET_PACK_H_
#define HDSKY_DATASET_PACK_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "data/block_file.h"
#include "data/table.h"
#include "interface/ranking.h"

namespace hdsky {
namespace dataset {

/// Packs `table` into a block file at `path` (atomically: temp + fsync
/// + rename). `ranking` is bound to the table and its static order
/// baked into the file; the header records the policy's name.
/// `options.compression` selects raw or per-run encoded page runs. When
/// `stats` is non-null, the writer's byte accounting (pages, k-d nodes,
/// per-column raw vs encoded bytes) is copied out on success —
/// `hdsky_pack --stats` prints it. Returns the number of rows written.
common::Result<int64_t> PackTable(
    const data::Table& table,
    std::shared_ptr<interface::RankingPolicy> ranking,
    const std::string& path, const data::BlockFileOptions& options,
    data::BlockFileWriteStats* stats = nullptr);

}  // namespace dataset
}  // namespace hdsky

#endif  // HDSKY_DATASET_PACK_H_
