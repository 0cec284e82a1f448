#include "interface/cache_io.h"

#include <algorithm>
#include <istream>
#include <ostream>

namespace hdsky {
namespace interface {
namespace cache_io {

using common::Result;
using common::Status;

namespace {

// Hex codec for the binary query signature.
std::string ToHex(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(digits[c >> 4]);
    out.push_back(digits[c & 0xf]);
  }
  return out;
}

Result<std::string> FromHex(const std::string& hex) {
  if (hex.size() % 2 != 0) {
    return Status::IOError("odd-length hex signature");
  }
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  std::string out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return Status::IOError("bad hex digit");
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

constexpr char kMagic[] = "hdsky-cache-v1";

}  // namespace

void WriteHeader(std::ostream& out, size_t count) {
  out << kMagic << " " << count << "\n";
}

void WriteEntry(std::ostream& out, const std::string& key,
                const QueryResult& result) {
  out << ToHex(key) << " " << (result.overflow ? 1 : 0) << " "
      << result.ids.size();
  for (size_t i = 0; i < result.ids.size(); ++i) {
    out << " " << result.ids[i];
    for (data::Value v : result.tuples[i]) out << " " << v;
  }
  out << "\n";
}

Status FinishWrite(std::ostream& out) {
  out.flush();
  if (!out) return Status::IOError("cache write failed");
  return Status::OK();
}

Result<std::unordered_map<std::string, QueryResult>> ReadAll(
    std::istream& in, int width, int k) {
  if (width <= 0) return Status::InvalidArgument("width must be positive");
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  std::string magic;
  size_t count = 0;
  if (!(in >> magic) || magic != kMagic) {
    return Status::IOError("not an hdsky cache stream");
  }
  if (!(in >> count)) {
    return Status::IOError("cache header missing entry count");
  }
  // A signature is the query's packed interval bounds: two Values per
  // attribute (see Query::Signature), so its decoded size is fixed by the
  // schema width.
  const size_t key_bytes =
      static_cast<size_t>(width) * 2 * sizeof(data::Value);
  std::unordered_map<std::string, QueryResult> loaded;
  for (size_t e = 0; e < count; ++e) {
    std::string hex;
    int overflow = 0;
    size_t num_ids = 0;
    if (!(in >> hex >> overflow >> num_ids)) {
      return Status::IOError("truncated cache entry");
    }
    HDSKY_ASSIGN_OR_RETURN(std::string key, FromHex(hex));
    if (key.size() != key_bytes) {
      return Status::IOError("signature does not match schema width");
    }
    if (overflow != 0 && overflow != 1) {
      return Status::IOError("overflow flag must be 0 or 1");
    }
    if (num_ids > static_cast<size_t>(k)) {
      return Status::IOError("cache entry holds more than k tuples");
    }
    QueryResult result;
    result.overflow = overflow != 0;
    // The declared tuple count is untrusted: reserve only what the stream
    // could plausibly hold, and let push_back grow past it if a hostile
    // count lies low (it can't lie high — reads fail first).
    const size_t plausible = std::min<size_t>(num_ids, 4096);
    result.ids.reserve(plausible);
    result.tuples.reserve(plausible);
    for (size_t i = 0; i < num_ids; ++i) {
      data::TupleId id;
      if (!(in >> id)) return Status::IOError("truncated cache tuple");
      if (id < 0) return Status::IOError("negative tuple id");
      data::Tuple t(static_cast<size_t>(width));
      for (int a = 0; a < width; ++a) {
        if (!(in >> t[static_cast<size_t>(a)])) {
          return Status::IOError("truncated cache tuple values");
        }
      }
      result.ids.push_back(id);
      result.tuples.push_back(std::move(t));
    }
    if (!loaded.emplace(std::move(key), std::move(result)).second) {
      return Status::IOError("duplicate cache key");
    }
  }
  // Anything but trailing whitespace after the declared entries means the
  // count lied or the stream was corrupted mid-write.
  char trailing = 0;
  if (in >> trailing) {
    return Status::IOError("trailing bytes after cache entries");
  }
  return loaded;
}

}  // namespace cache_io
}  // namespace interface
}  // namespace hdsky
