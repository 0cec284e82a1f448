#include "data/read_path.h"

#include <cerrno>
#include <cstring>
#include <string>

#include <sys/mman.h>
#include <unistd.h>

#include "data/block_file.h"

namespace hdsky {
namespace data {

using common::Result;
using common::Status;

namespace {

constexpr size_t kPageAlign = 4096;

class MmapReadPath final : public ReadPath {
 public:
  MmapReadPath(const uint8_t* base, uint64_t bytes)
      : base_(base), bytes_(bytes) {}
  ~MmapReadPath() override {
    ::munmap(const_cast<uint8_t*>(base_), bytes_);
  }

  Result<const uint8_t*> Fetch(uint64_t off, size_t len,
                               std::vector<uint8_t>*) override {
    if (off + len > bytes_) {
      return Status::IOError("mmap fetch out of bounds");
    }
    return base_ + off;
  }

  void Discard(uint64_t off, size_t len) override {
    Advise(off, len, MADV_DONTNEED);
  }

  const char* name() const override { return "mmap"; }

 private:
  void Advise(uint64_t off, size_t len, int advice) {
    // Extents are packed back to back, so advise only the memory pages
    // that lie wholly inside this one: a neighbour's bytes may be in
    // use. Best-effort.
    if (off + len > bytes_) return;
    const uint64_t first = (off + kPageAlign - 1) / kPageAlign * kPageAlign;
    const uint64_t last = (off + len) / kPageAlign * kPageAlign;
    if (first >= last) return;
    ::madvise(const_cast<uint8_t*>(base_) + first, last - first, advice);
  }

  const uint8_t* base_;
  uint64_t bytes_;
};

class PreadReadPath final : public ReadPath {
 public:
  PreadReadPath(int fd, uint64_t bytes, std::string path)
      : fd_(fd), bytes_(bytes), path_(std::move(path)) {}

  Result<const uint8_t*> Fetch(uint64_t off, size_t len,
                               std::vector<uint8_t>* scratch) override {
    if (off + len > bytes_) {
      return Status::IOError("pread fetch out of bounds");
    }
    if (scratch->size() < len) scratch->resize(len);
    size_t done = 0;
    while (done < len) {
      const ssize_t n = ::pread(fd_, scratch->data() + done, len - done,
                                static_cast<off_t>(off + done));
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError("pread " + path_ + ": " +
                               std::strerror(errno));
      }
      if (n == 0) return Status::IOError(path_ + ": unexpected EOF");
      done += static_cast<size_t>(n);
    }
    return scratch->data();
  }

  const char* name() const override { return "pread"; }

 private:
  int fd_;
  uint64_t bytes_;
  std::string path_;
};

}  // namespace

bool ParseReadPathKind(const std::string& s, ReadPathKind* out) {
  if (s == "mmap") {
    *out = ReadPathKind::kMmap;
    return true;
  }
  if (s == "pread") {
    *out = ReadPathKind::kPread;
    return true;
  }
  return false;
}

Result<std::unique_ptr<ReadPath>> ReadPath::Create(ReadPathKind kind,
                                                   const BlockFile& file) {
  switch (kind) {
    case ReadPathKind::kMmap: {
      void* map = ::mmap(nullptr, file.file_bytes(), PROT_READ, MAP_SHARED,
                         file.fd(), 0);
      if (map == MAP_FAILED) {
        return Status::IOError("mmap " + file.path() + ": " +
                               std::strerror(errno));
      }
      // Pages are touched in zone-tree order, not sequentially; stop
      // the kernel from readahead-ing the whole file on first fault.
      ::madvise(map, file.file_bytes(), MADV_RANDOM);
      return std::unique_ptr<ReadPath>(new MmapReadPath(
          static_cast<const uint8_t*>(map), file.file_bytes()));
    }
    case ReadPathKind::kPread:
      return std::unique_ptr<ReadPath>(
          new PreadReadPath(file.fd(), file.file_bytes(), file.path()));
  }
  return Status::InvalidArgument("unknown read path");
}

}  // namespace data
}  // namespace hdsky
