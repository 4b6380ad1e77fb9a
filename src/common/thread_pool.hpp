// A small fixed-size thread pool for running independent tasks — the
// execution engine behind `stopwatch_bench --jobs N`. Tasks are opaque
// void() callables; anything task-specific (results, errors, timing) is
// captured by the callable itself, so the pool stays policy-free. The
// destructor drains the queue and joins, so a scope exit is a barrier.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace stopwatch {

class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 1; pass `recommended_jobs(0)` for the
  /// hardware concurrency). Tasks submitted before destruction all run.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not throw — wrap the work and capture the
  /// exception into task-local state (the runner stores it per scenario).
  void submit(std::function<void()> task);

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_{false};
};

/// Maps a --jobs value to a worker count: 0 means "use the hardware
/// concurrency" (minimum 1 when the runtime reports 0), anything else is
/// taken literally.
[[nodiscard]] std::size_t recommended_jobs(std::size_t requested);

}  // namespace stopwatch
