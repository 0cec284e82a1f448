#include "net/event_loop.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/resource.h>
#include <unistd.h>

#include <utility>
#include <vector>

namespace hdsky {
namespace net {

using common::Result;
using common::Status;

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) {
    return Status::IOError(std::string("fcntl(F_GETFL): ") +
                           std::strerror(errno));
  }
  if (fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(std::string("fcntl(F_SETFL): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status EnsureFdCapacity(uint64_t need) {
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) != 0) {
    return Status::IOError(std::string("getrlimit(RLIMIT_NOFILE): ") +
                           std::strerror(errno));
  }
  if (lim.rlim_cur != RLIM_INFINITY && lim.rlim_cur < need) {
    rlimit want = lim;
    want.rlim_cur = (lim.rlim_max == RLIM_INFINITY || lim.rlim_max >= need)
                        ? static_cast<rlim_t>(need)
                        : lim.rlim_max;
    if (setrlimit(RLIMIT_NOFILE, &want) != 0) {
      return Status::IOError(std::string("setrlimit(RLIMIT_NOFILE): ") +
                             std::strerror(errno));
    }
    if (want.rlim_cur < need) {
      return Status::ResourceExhausted(
          "fd hard limit " + std::to_string(want.rlim_cur) +
          " below the " + std::to_string(need) + " descriptors needed");
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<EventLoop>> EventLoop::Create() {
  const int epoll_fd = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) {
    return Status::IOError(std::string("epoll_create1: ") +
                           std::strerror(errno));
  }
  const int wake_fd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd < 0) {
    const Status s = Status::IOError(std::string("eventfd: ") +
                                     std::strerror(errno));
    close(epoll_fd);
    return s;
  }
  auto loop = std::unique_ptr<EventLoop>(new EventLoop(epoll_fd, wake_fd));
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd;
  if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &ev) < 0) {
    return Status::IOError(std::string("epoll_ctl(ADD wakeup): ") +
                           std::strerror(errno));
  }
  return loop;
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) close(wake_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

Status EventLoop::Add(int fd, uint32_t events, IoCallback cb) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    return Status::IOError(std::string("epoll_ctl(ADD): ") +
                           std::strerror(errno));
  }
  callbacks_[fd] = std::make_shared<IoCallback>(std::move(cb));
  return Status::OK();
}

Status EventLoop::Modify(int fd, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
    return Status::IOError(std::string("epoll_ctl(MOD): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

void EventLoop::Remove(int fd) {
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  callbacks_.erase(fd);
}

void EventLoop::Post(Task task) {
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    posted_.push_back(std::move(task));
  }
  const uint64_t one = 1;
  // A full eventfd counter (EAGAIN) still means the loop will wake.
  [[maybe_unused]] const ssize_t n = write(wake_fd_, &one, sizeof(one));
}

void EventLoop::DrainWakeups() {
  uint64_t count = 0;
  while (read(wake_fd_, &count, sizeof(count)) > 0) {
  }
}

void EventLoop::RunPosted() {
  // Swap the whole queue out so posted tasks that Post() again (e.g. a
  // completion that schedules a follow-up) run on the next iteration
  // instead of livelocking this drain. The two vectors trade places and
  // keep their capacity, so a wake-up allocates nothing.
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    running_.swap(posted_);
  }
  for (Task& t : running_) t();
  running_.clear();
}

void EventLoop::Run(int tick_ms, const Task& on_tick) {
  using Clock = std::chrono::steady_clock;
  run_thread_.store(std::this_thread::get_id());
  std::vector<epoll_event> events(64);
  const auto period = std::chrono::milliseconds(tick_ms);
  auto now = Clock::now();
  auto next_tick = now + period;
  while (!stopping_.load(std::memory_order_acquire)) {
    // Sleep no later than the tick deadline; round up so a wait shorter
    // than a millisecond does not spin with zero timeouts.
    const int wait_ms = static_cast<int>(std::max<int64_t>(
        0, std::chrono::ceil<std::chrono::milliseconds>(next_tick - now)
               .count()));
    int n;
    do {
      n = epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), wait_ms);
    } while (n < 0 && errno == EINTR);
    if (n < 0) break;  // unrecoverable epoll failure
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        DrainWakeups();
        continue;
      }
      auto it = callbacks_.find(fd);
      if (it == callbacks_.end()) continue;  // removed by an earlier handler
      // Keep the functor alive across the call even if the handler
      // removes its own registration.
      const std::shared_ptr<IoCallback> cb = it->second;
      (*cb)(events[i].events);
    }
    RunPosted();
    // Tick on the deadline, not on every wake-up: a busy loop wakes once
    // per reply, and the tick handler may scan every connection.
    now = Clock::now();
    if (now >= next_tick) {
      next_tick = now + period;
      if (on_tick) on_tick();
    }
    if (n == static_cast<int>(events.size()) && events.size() < 4096) {
      events.resize(events.size() * 2);
    }
  }
  // Final drain so tasks posted concurrently with Stop() are not lost.
  RunPosted();
  run_thread_.store(std::thread::id());
}

void EventLoop::Stop() {
  stopping_.store(true, std::memory_order_release);
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = write(wake_fd_, &one, sizeof(one));
}

}  // namespace net
}  // namespace hdsky
