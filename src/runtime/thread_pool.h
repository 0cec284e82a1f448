// A small fixed-size thread pool for the embarrassingly parallel parts
// of the reproduction: independent discovery trials, figure-sweep points,
// and multi-seed averaging loops.
//
// Design notes:
//  * Workers are std::jthread and honor a std::stop_token: destroying the
//    pool requests stop, wakes everyone, drains the queue, and joins.
//  * The pool is deliberately minimal — no futures, no priorities. Fan-out
//    primitives (ParallelFor, bench::RunTrialsParallel) layer determinism
//    on top: each parallel unit owns its output slot, so results never
//    depend on scheduling order.
//  * Thread-count policy lives here too: HDSKY_THREADS picks the degree of
//    parallelism for benches and tools (default 1 = serial, the paper's
//    setting; 0 = all hardware threads).

#ifndef HDSKY_RUNTIME_THREAD_POOL_H_
#define HDSKY_RUNTIME_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <stop_token>
#include <thread>
#include <vector>

namespace hdsky {
namespace runtime {

/// Number of worker threads requested via $HDSKY_THREADS: 1 when unset
/// (serial, the default everywhere), 0 means "all hardware threads",
/// otherwise clamped to [1, 256].
int EnvThreadCount();

/// std::thread::hardware_concurrency with a floor of 1.
int HardwareThreadCount();

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  /// Requests stop, wakes all workers, joins. Already queued tasks are
  /// drained before the workers exit (ParallelFor relies on this).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task. Tasks must not throw (the codebase is Status-based);
  /// a task that does throw terminates via std::terminate in the worker.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished and the queue is
  /// empty. Safe to call from any non-worker thread.
  void WaitIdle();

 private:
  void Worker(std::stop_token stop);

  std::mutex mu_;
  std::condition_variable_any work_cv_;   // signals: task queued / stop
  std::condition_variable idle_cv_;       // signals: pool drained
  std::deque<std::function<void()>> queue_;
  int64_t in_flight_ = 0;  // dequeued but unfinished tasks
  std::vector<std::jthread> workers_;     // last member: joins first
};

}  // namespace runtime
}  // namespace hdsky

#endif  // HDSKY_RUNTIME_THREAD_POOL_H_
