// Serialization of the client-side answer cache (CachingDatabase).
//
// This header is the single owner of the versioned text format
// ("hdsky-cache-v1"): a cache saved by one discovery session, serial or
// parallel, warms the next.
//
// Layout: a header line `hdsky-cache-v1 <count>`, then one line per
// entry: hex-encoded query signature, overflow flag, tuple count, and for
// each tuple its id followed by its attribute values.

#ifndef HDSKY_INTERFACE_CACHE_IO_H_
#define HDSKY_INTERFACE_CACHE_IO_H_

#include <iosfwd>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "interface/hidden_database.h"

namespace hdsky {
namespace interface {
namespace cache_io {

/// Writes the format header for `count` entries.
void WriteHeader(std::ostream& out, size_t count);

/// Writes one cache entry (key is the binary query signature).
void WriteEntry(std::ostream& out, const std::string& key,
                const QueryResult& result);

/// Flushes and reports stream failure.
common::Status FinishWrite(std::ostream& out);

/// Parses a full cache stream previously produced by the writers above.
/// `width` is the schema's attribute count (tuple arity) and `k` the
/// interface's page size: an entry holding more than k tuples could
/// never have been a top-k answer. Fails — and returns nothing — on a
/// malformed stream.
common::Result<std::unordered_map<std::string, QueryResult>> ReadAll(
    std::istream& in, int width, int k);

}  // namespace cache_io
}  // namespace interface
}  // namespace hdsky

#endif  // HDSKY_INTERFACE_CACHE_IO_H_
