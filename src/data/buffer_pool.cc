#include "data/buffer_pool.h"

#include <algorithm>
#include <string>
#include <vector>

namespace hdsky {
namespace data {

using common::Result;
using common::Status;

BufferPool::BufferPool(const BlockFile* file, const Options& options)
    : file_(file),
      requested_budget_(options.budget_bytes),
      budget_(options.budget_bytes < file->page_bytes()
                  ? file->page_bytes()
                  : options.budget_bytes),
      kind_(options.read_path) {
  auto rp = ReadPath::Create(kind_, *file);
  if (!rp.ok()) {
    init_status_ = rp.status();
    return;
  }
  read_path_ = std::move(rp).value();
}

const char* BufferPool::read_path_name() const {
  return read_path_ != nullptr
             ? read_path_->name()
             : (kind_ == ReadPathKind::kPread ? "pread" : "mmap");
}

Status BufferPool::LoadLocked(std::unique_lock<std::mutex>& lock,
                              int64_t page_id) {
  const BlockFile::Extent ext = file_->extent(page_id);
  const size_t frame_bytes = file_->frame_bytes(page_id);
  lock.unlock();
  // Fetch + verify + decode outside the lock; the frame's loading flag
  // keeps this page out of every other thread's way (it cannot be
  // evicted — it is not resident — and concurrent pins wait).
  std::unique_ptr<uint8_t[]> buf(new uint8_t[frame_bytes]);
  thread_local std::vector<uint8_t> scratch;
  Status st = init_status_;
  bool fetched = false;
  if (st.ok()) {
    auto src = read_path_->Fetch(ext.offset, ext.bytes, &scratch);
    if (!src.ok()) {
      st = src.status();
    } else {
      fetched = true;
      st = file_->DecodePage(page_id, src.value(), ext.bytes, buf.get());
      // The stored bytes are consumed either way — the frame owns the
      // decoded copy now, so the kernel can drop the mapped originals.
      read_path_->Discard(ext.offset, ext.bytes);
    }
  }
  lock.lock();
  if (fetched) stats_.bytes_read += ext.bytes;
  Frame& f = frames_[page_id];
  f.loading = false;
  if (!st.ok()) {
    ++stats_.crc_failures;
    load_cv_.notify_all();
    return st;
  }
  f.data = std::move(buf);
  f.bytes = static_cast<uint32_t>(frame_bytes);
  ++stats_.loads;
  stats_.resident_bytes += frame_bytes;
  ++stats_.resident_pages;
  EvictToBudget();
  load_cv_.notify_all();
  return Status::OK();
}

Result<BufferPool::PageRef> BufferPool::Pin(int64_t page_id) {
  if (page_id < 0 || page_id >= file_->num_data_pages()) {
    return Status::InvalidArgument("page " + std::to_string(page_id) +
                                   " is not a data page");
  }
  std::unique_lock<std::mutex> lock(mu_);
  Frame& frame = frames_[page_id];
  ++frame.pins;
  if (frame.in_lru) {
    // Resident and unpinned until now: pull it off the eviction list.
    // Splice onto the spare list instead of erasing — node recycling
    // keeps the warm pin/unpin cycle allocation-free.
    spare_.splice(spare_.begin(), lru_, frame.lru_it);
    frame.in_lru = false;
  }
  if (frame.data != nullptr) {
    ++stats_.hits;
    return PageRef(this, page_id, frame.data.get());
  }
  ++stats_.misses;
  // Single-flight: one pin loads, the rest wait for the verdict.
  while (frame.loading) {
    load_cv_.wait(lock);
    if (frame.data != nullptr) {
      ++stats_.hits;
      return PageRef(this, page_id, frame.data.get());
    }
  }
  frame.loading = true;
  const Status st = LoadLocked(lock, page_id);
  Frame& f = frames_[page_id];
  if (!st.ok()) {
    if (--f.pins == 0) frames_.erase(page_id);
    return st;
  }
  return PageRef(this, page_id, f.data.get());
}

void BufferPool::Unpin(int64_t page_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = frames_.find(page_id);
  if (it == frames_.end()) return;
  Frame& frame = it->second;
  if (--frame.pins > 0) return;
  if (frame.data == nullptr) {
    frames_.erase(it);
    return;
  }
  if (spare_.empty()) {
    frame.lru_it = lru_.insert(lru_.end(), page_id);
  } else {
    lru_.splice(lru_.end(), spare_, spare_.begin());
    frame.lru_it = std::prev(lru_.end());
    *frame.lru_it = page_id;
  }
  frame.in_lru = true;
  EvictToBudget();
}

void BufferPool::EvictFront() {
  const int64_t victim = lru_.front();
  spare_.splice(spare_.begin(), lru_, lru_.begin());
  auto it = frames_.find(victim);
  stats_.resident_bytes -= it->second.bytes;
  --stats_.resident_pages;
  frames_.erase(it);
  ++stats_.evictions;
}

void BufferPool::EvictToBudget() {
  while (stats_.resident_bytes > budget_ && !lru_.empty()) {
    EvictFront();
  }
  if (stats_.resident_bytes > budget_) ++stats_.overcommits;
}

void BufferPool::DropAll() {
  std::lock_guard<std::mutex> lock(mu_);
  while (!lru_.empty()) {
    EvictFront();
  }
}

BufferPool::Stats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace data
}  // namespace hdsky
