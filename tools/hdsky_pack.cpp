// hdsky_pack — bulk load of a dataset into a paged block file
// (data/block_file.h, format v3) that hdsky_serve / hdsky_discover can
// open out-of-core via --dataset-file.
//
// Loads a dataset (CSV or a built-in simulator), binds the chosen
// static-order ranking, and writes the table as k-d leaf pages whose rows
// carry their ranks — header, leaf pages, k-d directory — through the
// atomic temp+fsync+rename path, so a crash never leaves a half-written
// file.
//
//   hdsky_pack --demo bluenile --n 1000000 --out bluenile.hdb
//   hdsky_pack --data listings.csv --ranking lex:price --out listings.hdb
//
// Flags and their conflicts: PackFlags in src/session/flags.cc.
//
// Prints one summary line to stderr and exits 0 on success; exit 64 on
// usage errors (including --compress with a value type the encoders do
// not support), 1 on load/pack failures.

#include <cstdio>
#include <string>

#include "data/block_file.h"
#include "dataset/pack.h"
#include "session/source.h"

int main(int argc, char** argv) {
  using namespace hdsky;
  session::PackConfig args;
  if (!session::ParseOrUsage(session::PackFlags(&args), argc, argv)) {
    return session::kExitUsage;
  }
  auto table_result = session::LoadTable(args.source);
  if (!table_result.ok()) {
    return session::ReportFailure(stderr, "load", table_result.status());
  }
  const data::Table table = std::move(table_result).value();
  auto ranking_result = session::MakeRanking(args.source, table.schema());
  if (!ranking_result.ok()) {
    return session::ReportFailure(stderr, "ranking", ranking_result.status());
  }

  data::BlockFileOptions options;
  options.rows_per_block = args.rows_per_block;
  options.compression = args.compress == "off" ? data::Compression::kOff
                                               : data::Compression::kAuto;
  if (options.compression == data::Compression::kAuto) {
    // The per-run encoders operate on bounded int64 rank codes; an
    // attribute with an inverted domain has no representable value
    // range and cannot be compressed.
    for (int a = 0; a < table.schema().num_attributes(); ++a) {
      const data::AttributeSpec& spec = table.schema().attribute(a);
      if (spec.domain_min > spec.domain_max) {
        std::fprintf(stderr,
                     "--compress=auto: attribute %s has an unsupported "
                     "value type (inverted domain); use --compress=off\n",
                     spec.name.c_str());
        return session::kExitUsage;
      }
    }
  }
  data::BlockFileWriteStats stats;
  auto packed = dataset::PackTable(table, std::move(ranking_result).value(),
                                   args.out, options, &stats);
  if (!packed.ok()) {
    return session::ReportFailure(stderr, "pack", packed.status());
  }
  std::fprintf(stderr, "packed  : %lld rows (%s, ranking %s) -> %s\n",
               static_cast<long long>(packed.value()),
               table.schema().ToString().c_str(), args.source.ranking.c_str(),
               args.out.c_str());
  if (args.stats) {
    const double rows = stats.rows > 0 ? static_cast<double>(stats.rows)
                                       : 1.0;
    std::fprintf(stderr,
                 "stats   : %lld data pages (k-d leaves of <= %lld rows), "
                 "%lld k-d nodes, depth %d, %.1f bytes/row on disk "
                 "(%.1f logical)\n",
                 static_cast<long long>(stats.data_pages),
                 static_cast<long long>(options.rows_per_block),
                 static_cast<long long>(stats.kd_nodes), stats.kd_depth,
                 static_cast<double>(stats.file_bytes) / rows,
                 static_cast<double>(stats.raw_payload_bytes()) / rows);
    for (size_t c = 0; c < stats.columns.size(); ++c) {
      const auto& col = stats.columns[c];
      const char* name =
          c == 0   ? "<tuple id>"
          : c == 1 ? "<rank>"
                   : table.schema()
                         .attribute(static_cast<int>(c) - 2)
                         .name.c_str();
      const double ratio =
          col.encoded_bytes > 0
              ? static_cast<double>(col.raw_bytes) /
                    static_cast<double>(col.encoded_bytes)
              : 1.0;
      std::fprintf(stderr,
                   "stats   :   %-12s %10llu B -> %10llu B (%.2fx)\n",
                   name, static_cast<unsigned long long>(col.raw_bytes),
                   static_cast<unsigned long long>(col.encoded_bytes),
                   ratio);
    }
  }
  return session::kExitOk;
}
