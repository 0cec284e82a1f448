#include "recovery/checkpoint.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <dirent.h>
#include <unistd.h>

#include "common/fs_util.h"
#include "net/wire.h"

namespace hdsky {
namespace recovery {

using common::Result;
using common::Status;

namespace {

constexpr char kManifestMagic[] = "hdsky-manifest-v2";
constexpr char kManifestMagicV1[] = "hdsky-manifest-v1";
constexpr char kJournalPrefix[] = "journal-";

/// Parses "journal-NNNNNN"; -1 for anything else.
int64_t SegmentOfFileName(const std::string& name) {
  const size_t plen = std::strlen(kJournalPrefix);
  if (name.size() <= plen || name.compare(0, plen, kJournalPrefix) != 0) {
    return -1;
  }
  char* end = nullptr;
  const long long segment = std::strtoll(name.c_str() + plen, &end, 10);
  if (end == name.c_str() + plen || *end != '\0' || segment < 1) return -1;
  return static_cast<int64_t>(segment);
}

}  // namespace

std::string JournalFileName(int64_t segment) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%06" PRId64, kJournalPrefix, segment);
  return buf;
}

Status WriteManifest(const std::string& dir, const Manifest& m) {
  const std::string contents = std::string(kManifestMagic) + " " +
                               std::to_string(m.first) + " " +
                               std::to_string(m.live) + "\n";
  return common::AtomicWriteFile(dir + "/" + kManifestFileName, contents);
}

Result<Manifest> ReadManifest(const std::string& dir) {
  const std::string path = dir + "/" + kManifestFileName;
  std::string contents;
  HDSKY_ASSIGN_OR_RETURN(contents, common::ReadFileToString(path));
  char magic[32] = {0};
  long long a = 0;
  long long b = -1;
  if (std::sscanf(contents.c_str(), "%31s %lld %lld", magic, &a, &b) != 3) {
    return Status::IOError(path + ": malformed manifest");
  }
  if (std::strcmp(magic, kManifestMagicV1) == 0) {
    // v1: "<epoch> <has_snapshot>". Before its first checkpoint a v1
    // directory is exactly a v2 one holding segment 1; after it, its
    // history lives in a snapshot this release no longer reads.
    if (a == 1 && b == 0) return Manifest{1, 1};
    if (a >= 1 && b == 1) {
      return Status::Unsupported(
          dir + ": journal directory written by an older release (MANIFEST "
          "v1 with snapshot-" + std::to_string(a) + "); this release reads "
          "only sealed journal segments. Finish the session with the "
          "release that wrote it, or start over with a fresh --journal "
          "directory");
    }
    return Status::IOError(path + ": malformed manifest");
  }
  if (std::strcmp(magic, kManifestMagic) != 0 || a < 1 || b < a) {
    return Status::IOError(path + ": malformed manifest");
  }
  return Manifest{static_cast<int64_t>(a), static_cast<int64_t>(b)};
}

void RemoveSegmentsAfter(const std::string& dir, int64_t live) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (SegmentOfFileName(name) > live) ::unlink((dir + "/" + name).c_str());
  }
  ::closedir(d);
}

// ---------------------------------------------------------------------------
// Session state.

std::string EncodeSessionState(const SessionState& state) {
  std::string out;
  net::Encoder enc(&out);
  enc.PutString(state.algorithm);
  enc.PutString(state.run_state);
  enc.PutString(state.frontier);
  return out;
}

Result<SessionState> DecodeSessionState(std::string_view blob) {
  SessionState state;
  if (blob.empty()) return state;
  net::Decoder dec(blob);
  dec.GetString(&state.algorithm);
  dec.GetString(&state.run_state);
  dec.GetString(&state.frontier);
  if (!dec.exhausted()) {
    return Status::IOError("malformed session state blob");
  }
  return state;
}

}  // namespace recovery
}  // namespace hdsky
