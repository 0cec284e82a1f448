// The local data source of hdsky_discover, hdsky_serve and hdsky_pack:
// --data / --demo loaded into an in-memory Table, or --dataset-file
// opened as a PagedTable, and the top-k interface over it. Kept apart
// from session.h so the server and the packer link only this layer.

#ifndef HDSKY_SESSION_SOURCE_H_
#define HDSKY_SESSION_SOURCE_H_

#include <cstdio>
#include <memory>

#include "data/paged_table.h"
#include "data/table.h"
#include "interface/ranking.h"
#include "interface/top_k_interface.h"
#include "session/flags.h"

namespace hdsky {
namespace session {

/// Reads --data or generates --demo.
common::Result<data::Table> LoadTable(const SourceConfig& source);

/// --ranking: "sum" or "lex:<attribute>", resolved against `schema`.
common::Result<std::shared_ptr<interface::RankingPolicy>> MakeRanking(
    const SourceConfig& source, const data::Schema& schema);

/// A local source: an in-memory table or a packed file, and the top-k
/// interface over it.
struct LocalSource {
  data::Table table;                        // --data / --demo
  std::unique_ptr<data::PagedTable> paged;  // --dataset-file
  std::unique_ptr<interface::TopKInterface> iface;
};

/// Loads --data/--demo into `table`, or opens --dataset-file into
/// `paged` and warns on `err` when the pool budget had to be raised.
ExitCode LoadSource(const SourceConfig& source, std::FILE* err,
                    LocalSource* out);

/// Builds the top-k interface over a loaded source.
ExitCode BindInterface(const SourceConfig& source, std::FILE* err,
                       LocalSource* out);

/// The buffer pool's "pool    :" statistics line.
void PrintPoolStats(std::FILE* f, const data::PagedTable& paged);

}  // namespace session
}  // namespace hdsky

#endif  // HDSKY_SESSION_SOURCE_H_
