// Pluggable byte-fetch mechanics for the buffer pool: how a page's
// stored (possibly encoded) extent travels from disk into memory before
// BlockFile::DecodePage materializes the frame.
//
//   kMmap   the whole file is mapped PROT_READ/MAP_SHARED with
//           MADV_RANDOM; Fetch returns a pointer into the mapping (the
//           kernel faults the bytes in), Discard hands them back with
//           MADV_DONTNEED. Zero-copy, but every cold touch is a
//           blocking page fault on the pinning thread.
//   kPread  Fetch pread(2)s the extent into caller scratch: one
//           explicit read per page, no page-cache aliasing games.
//
// Both paths are stateless per call and safe to share across threads
// (pread is positionless; the mapping is read-only).

#ifndef HDSKY_DATA_READ_PATH_H_
#define HDSKY_DATA_READ_PATH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace hdsky {
namespace data {

class BlockFile;

enum class ReadPathKind : uint8_t {
  kMmap = 0,
  kPread = 1,
};

/// Parses "mmap" / "pread"; returns false on anything else.
bool ParseReadPathKind(const std::string& s, ReadPathKind* out);

class ReadPath {
 public:
  virtual ~ReadPath() = default;

  /// Makes `len` bytes at file offset `off` addressable and returns a
  /// pointer to them. `scratch` may be used as backing storage, in
  /// which case the pointer is into *scratch; either way it stays valid
  /// until scratch is touched again or the extent is Discarded.
  virtual common::Result<const uint8_t*> Fetch(
      uint64_t off, size_t len, std::vector<uint8_t>* scratch) = 0;

  /// Tells the path the extent's bytes were consumed (decoded into a
  /// pool frame) and won't be re-read soon. Best-effort.
  virtual void Discard(uint64_t /*off*/, size_t /*len*/) {}

  /// "mmap" or "pread" (stats lines, bench labels).
  virtual const char* name() const = 0;

  static common::Result<std::unique_ptr<ReadPath>> Create(
      ReadPathKind kind, const BlockFile& file);
};

}  // namespace data
}  // namespace hdsky

#endif  // HDSKY_DATA_READ_PATH_H_
