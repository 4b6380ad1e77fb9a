#include "experiment/points.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "experiment/scenario.hpp"
#include "obs/trace.hpp"

namespace stopwatch::experiment {

ThreadBudget::ThreadBudget(std::size_t threads) : spare_(threads - 1) {
  SW_EXPECTS(threads >= 1);
}

bool ThreadBudget::try_take() {
  std::size_t spare = spare_.load();
  while (spare > 0) {
    if (spare_.compare_exchange_weak(spare, spare - 1)) return true;
  }
  return false;
}

void ThreadBudget::give_back() { ++spare_; }

void for_each_point(ThreadBudget* budget, std::size_t n,
                    std::size_t max_in_flight,
                    const std::function<void(std::size_t)>& fn) {
  SW_EXPECTS(max_in_flight >= 1);
  if (obs::active_trace() != nullptr) budget = nullptr;

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::size_t error_index = n;
  std::exception_ptr error;
  // Claims only while nothing has failed, and runs every index it claims:
  // claims are in index order, so every index below a failing one has
  // been claimed and run, and the lowest failure is the sequential one.
  const auto run_point = [&](std::size_t i) {
    try {
      fn(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (i < error_index) {
        error_index = i;
        error = std::current_exception();
      }
      failed = true;
    }
  };
  std::atomic<std::size_t> helpers_running{0};
  const auto help = [&] {
    while (!failed) {
      const std::size_t i = next++;
      if (i >= n) break;
      run_point(i);
    }
    --helpers_running;
    budget->give_back();
  };

  {
    // Declared after the state the helpers read, and joined at the end of
    // this block, before the error is read.
    std::vector<std::jthread> helpers;
    while (!failed) {
      const std::size_t i = next++;
      if (i >= n) break;
      // Running helpers are busy with their own points: start one more
      // for each point nobody has claimed yet, while the cap and the
      // budget allow.
      const std::size_t unclaimed = n - std::min(n, next.load());
      const std::size_t running = helpers_running.load();
      std::size_t wanted =
          running + 1 < max_in_flight
              ? std::min(unclaimed, max_in_flight - 1 - running)
              : 0;
      for (; budget != nullptr && wanted > 0 && budget->try_take(); --wanted) {
        ++helpers_running;
        helpers.emplace_back(help);
      }
      run_point(i);
    }
  }
  if (error) std::rethrow_exception(error);
}

void for_each_point(const ScenarioContext& ctx, std::size_t n,
                    const std::function<void(std::size_t)>& fn) {
  for_each_point(ctx.budget(), n, kMaxPointsInFlight, fn);
}

}  // namespace stopwatch::experiment
