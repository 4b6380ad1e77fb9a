#include "common/thread_pool.hpp"

#include <utility>

#include "common/contracts.hpp"

namespace stopwatch {

ThreadPool::ThreadPool(std::size_t threads) {
  SW_EXPECTS(threads >= 1);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  SW_EXPECTS(task != nullptr);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    SW_EXPECTS(!stopping_);
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      // Drain remaining tasks even when stopping: destruction after submit
      // must still run everything, so "stop" only means "no new work".
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

std::size_t recommended_jobs(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace stopwatch
