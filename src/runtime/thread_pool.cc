#include "runtime/thread_pool.h"

#include <cstdlib>

namespace hdsky {
namespace runtime {

int HardwareThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int EnvThreadCount() {
  const char* env = std::getenv("HDSKY_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  const long v = std::strtol(env, nullptr, 10);
  if (v == 0) return HardwareThreadCount();
  if (v < 1) return 1;
  if (v > 256) return 256;
  return static_cast<int>(v);
}

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back(
        [this](std::stop_token stop) { Worker(std::move(stop)); });
  }
}

ThreadPool::~ThreadPool() {
  for (auto& w : workers_) w.request_stop();
  work_cv_.notify_all();
  // jthread destructors join.
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::Worker(std::stop_token stop) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, stop, [this] { return !queue_.empty(); });
      if (queue_.empty()) return;  // stop requested and nothing to run
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace runtime
}  // namespace hdsky
