// LRU buffer pool of decoded page frames over a BlockFile.
//
// The pool owns the decoded memory: a *frame* is a heap buffer holding
// one k-d leaf page in its decoded layout ({CRC, count} prologue, then
// ids, ranks and attribute-major values) that the kernels consume
// directly. Loading a page means fetching its stored extent through the
// pluggable ReadPath (mmap fault or pread copy), CRC-verifying the
// stored bytes, and decoding them into a pool-owned frame. Only data
// pages go through the pool — the k-d directory stays in the BlockFile
// — so the byte budget bounds the decoded leaves a query touches.
//
// Pages are keyed by their data page index in [0, num_data_pages()).
// Every load happens on the pinning thread: the paged engine's
// best-first walk learns which leaf comes next only as it goes, so
// there is nothing to read ahead of it.
//
// Invariants (exercised by tests/storage_test.cc, TSan-clean under the
// event server's concurrent sessions):
//   * a page with pins > 0 is never evicted, whatever the budget says;
//   * verification + decode run exactly once per residency,
//     single-flight: concurrent first pins of one page wait on the
//     loading thread instead of racing;
//   * a failed CRC or decode makes every waiting Pin fail and leaves
//     the page non-resident (a retry re-reads — and re-fails — from
//     disk);
//   * unpinned residents are evicted in least-recently-*unpinned* order
//     until resident bytes fit the budget; if every resident page is
//     pinned the pool runs over budget rather than deadlock, and
//     records the overcommit in its stats.

#ifndef HDSKY_DATA_BUFFER_POOL_H_
#define HDSKY_DATA_BUFFER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/status.h"
#include "data/block_file.h"
#include "data/read_path.h"

namespace hdsky {
namespace data {

class BufferPool {
 public:
  struct Options {
    /// Resident-byte budget. At least one page is always allowed (see
    /// budget_was_clamped()).
    size_t budget_bytes = size_t{256} << 20;
    /// How stored bytes reach memory (read_path.h).
    ReadPathKind read_path = ReadPathKind::kMmap;
  };

  struct Stats {
    uint64_t hits = 0;    // pins served from residency without a load
    uint64_t misses = 0;  // pins that found the page non-resident
    uint64_t loads = 0;   // verified + decoded frame installs
    uint64_t evictions = 0;
    uint64_t crc_failures = 0;
    uint64_t overcommits = 0;  // budget exceeded because all pins held
    /// Always 0: the pool reads nothing ahead. Kept because the tools'
    /// `pool    :` stats line, which perfbench parses, prints them.
    uint64_t prefetch_loads = 0;
    uint64_t prefetch_hits = 0;
    uint64_t bytes_read = 0;  // stored bytes fetched
    uint64_t resident_bytes = 0;
    uint64_t resident_pages = 0;
  };

  /// `file` must outlive the pool.
  BufferPool(const BlockFile* file, const Options& options);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// RAII pin: the page stays resident (and its frame bytes valid)
  /// until the ref is destroyed. Movable, not copyable.
  class PageRef {
   public:
    PageRef() = default;
    PageRef(PageRef&& o) noexcept
        : pool_(o.pool_), page_(o.page_), data_(o.data_) {
      o.pool_ = nullptr;
    }
    PageRef& operator=(PageRef&& o) noexcept {
      if (this != &o) {
        Release();
        pool_ = o.pool_;
        page_ = o.page_;
        data_ = o.data_;
        o.pool_ = nullptr;
      }
      return *this;
    }
    ~PageRef() { Release(); }

    const uint8_t* data() const { return data_; }
    int64_t page_id() const { return page_; }
    explicit operator bool() const { return pool_ != nullptr; }

   private:
    friend class BufferPool;
    PageRef(BufferPool* pool, int64_t page, const uint8_t* data)
        : pool_(pool), page_(page), data_(data) {}
    void Release() {
      if (pool_ != nullptr) {
        pool_->Unpin(page_);
        pool_ = nullptr;
      }
    }

    BufferPool* pool_ = nullptr;
    int64_t page_ = 0;
    const uint8_t* data_ = nullptr;
  };

  /// Pins data page `page_id` (in [0, file->num_data_pages())),
  /// loading + verifying + decoding it if not resident. Fails with the
  /// BlockFile's corruption status on CRC or decode mismatch.
  common::Result<PageRef> Pin(int64_t page_id);

  /// Evicts every unpinned resident page (the benches'
  /// buffer-pool-cold reset). Pinned pages stay.
  void DropAll();

  Stats stats() const;
  size_t budget_bytes() const { return budget_; }
  /// The budget the caller asked for, before the one-page floor. When
  /// budget_was_clamped(), tools warn instead of silently rounding up.
  size_t requested_budget_bytes() const { return requested_budget_; }
  bool budget_was_clamped() const { return budget_ != requested_budget_; }
  const char* read_path_name() const;
  const BlockFile* file() const { return file_; }

 private:
  struct Frame {
    int pins = 0;
    bool loading = false;
    std::unique_ptr<uint8_t[]> data;  // non-null == resident
    uint32_t bytes = 0;               // frame size (budget accounting)
    std::list<int64_t>::iterator lru_it{};
    bool in_lru = false;
  };

  void Unpin(int64_t page_id);
  /// Drops LRU unpinned pages until resident bytes fit the budget.
  /// Caller holds mu_.
  void EvictToBudget();
  /// Evicts lru_.front(). Caller holds mu_.
  void EvictFront();
  /// Fetches + verifies + decodes page_id, whose frame the caller has
  /// marked loading. Drops and reacquires `lock` around the I/O;
  /// installs the frame and notifies waiters. Caller handles pin
  /// bookkeeping / LRU insertion afterwards.
  common::Status LoadLocked(std::unique_lock<std::mutex>& lock,
                            int64_t page_id);

  const BlockFile* file_;
  const size_t requested_budget_;
  const size_t budget_;
  std::unique_ptr<ReadPath> read_path_;
  common::Status init_status_;
  const ReadPathKind kind_;

  mutable std::mutex mu_;
  std::condition_variable load_cv_;
  std::unordered_map<int64_t, Frame> frames_;
  std::list<int64_t> lru_;  // unpinned residents, least recent first
  /// Recycled lru_ nodes (bounded by the peak resident page count):
  /// repinning and unpinning splice nodes between the two lists, so the
  /// steady-state warm path never touches the allocator.
  std::list<int64_t> spare_;
  Stats stats_;
};

}  // namespace data
}  // namespace hdsky

#endif  // HDSKY_DATA_BUFFER_POOL_H_
