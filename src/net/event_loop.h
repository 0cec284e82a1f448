// A minimal epoll event loop, the substrate of the event-driven service
// layer (service/event_server.h) and of the load-generator client driver
// (service/load_driver.h).
//
// Model: one EventLoop is driven by exactly one thread calling Run().
// Everything the loop owns — fd callbacks, connection state in the
// caller's hands — is touched only from that thread, so the per-loop
// state needs no locks. Other threads communicate with a loop only
// through Post(), which enqueues a task under a small mutex and wakes
// the loop via an eventfd; the loop drains the queue on its own thread.
//
// Dispatch is level-triggered: a callback that does not drain its fd is
// simply called again on the next epoll_wait, which keeps the
// correctness argument local to each handler (no "you must read until
// EAGAIN or starve" contract, although handlers do drain for
// efficiency).
//
// Timers: the loop invokes the tick handler once every tick_ms, whether
// or not I/O woke it in between — a deliberately blunt instrument that
// is exactly enough for coarse idle/slow-peer timeout scans without a
// timer heap.

#ifndef HDSKY_NET_EVENT_LOOP_H_
#define HDSKY_NET_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace hdsky {
namespace net {

/// Sets O_NONBLOCK on `fd`.
common::Status SetNonBlocking(int fd);

/// Raises RLIMIT_NOFILE's soft limit toward the hard limit until at
/// least `need` descriptors fit (no-op when the limit already suffices).
/// Thousands of concurrent loopback sessions need this on default
/// soft limits of 1024.
common::Status EnsureFdCapacity(uint64_t need);

class EventLoop {
 public:
  /// Callback for fd readiness; receives the EPOLLIN/EPOLLOUT/... mask.
  using IoCallback = std::function<void(uint32_t events)>;
  using Task = std::function<void()>;

  /// Creates the epoll instance and wakeup eventfd.
  static common::Result<std::unique_ptr<EventLoop>> Create();

  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` for `events` (EPOLLIN and friends). Loop thread only
  /// (or before Run starts). The callback may Remove its own fd.
  common::Status Add(int fd, uint32_t events, IoCallback cb);

  /// Changes the interest mask of a registered fd. Loop thread only.
  common::Status Modify(int fd, uint32_t events);

  /// Deregisters `fd`; safe to call from inside its own callback. Does
  /// not close the fd. Loop thread only.
  void Remove(int fd);

  /// Enqueues `task` to run on the loop thread; thread-safe, callable
  /// from any thread. Tasks posted after Stop() are silently dropped
  /// when the loop exits.
  void Post(Task task);

  /// Runs the loop on the calling thread until Stop(). `on_tick` runs
  /// once `tick_ms` has passed since the last tick (or since Run began),
  /// however often I/O or posted tasks wake the loop in between (pass a
  /// no-op handler for pure I/O loops).
  void Run(int tick_ms, const Task& on_tick);

  /// Requests Run() to return; thread-safe and idempotent.
  void Stop();

  /// True when called from the thread currently inside Run().
  bool InLoopThread() const {
    return run_thread_ == std::this_thread::get_id();
  }

  /// Number of registered fds (excluding the internal wakeup fd).
  size_t num_fds() const { return callbacks_.size(); }

 private:
  EventLoop(int epoll_fd, int wake_fd)
      : epoll_fd_(epoll_fd), wake_fd_(wake_fd) {}

  void DrainWakeups();
  void RunPosted();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<std::thread::id> run_thread_{};

  /// shared_ptr so a handler that removes itself (or another fd) while
  /// the dispatch loop still holds a reference cannot free the functor
  /// out from under the running call.
  std::unordered_map<int, std::shared_ptr<IoCallback>> callbacks_;

  std::mutex posted_mu_;
  std::vector<Task> posted_;
  /// The batch RunPosted is draining; loop thread only.
  std::vector<Task> running_;
};

}  // namespace net
}  // namespace hdsky

#endif  // HDSKY_NET_EVENT_LOOP_H_
