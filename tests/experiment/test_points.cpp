// for_each_point, the experiment layer's one claim loop: every index runs
// exactly once whatever the budget, nested loops never run more threads than
// the budget holds, and a throwing point is reported only after every helper
// has joined — the lowest failing index, as a sequential run would report.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "experiment/points.hpp"
#include "experiment/scenario.hpp"

namespace stopwatch::experiment {
namespace {

constexpr std::size_t kUncapped = 1000;

TEST(ForEachPoint, EveryIndexRunsExactlyOnce) {
  for (const std::size_t threads : {1, 2, 4, 8}) {
    ThreadBudget budget(threads);
    std::vector<std::atomic<int>> runs(57);
    for_each_point(&budget, runs.size(), kUncapped,
                   [&](std::size_t i) { ++runs[i]; });
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "index " << i << ", threads " << threads;
    }
    // Every helper returned its thread.
    for (std::size_t t = 1; t < threads; ++t) EXPECT_TRUE(budget.try_take());
    EXPECT_FALSE(budget.try_take());
  }
}

TEST(ForEachPoint, NoPointsRunsNothing) {
  ThreadBudget budget(4);
  int calls = 0;
  for_each_point(&budget, 0, kUncapped, [&](std::size_t) { ++calls; });
  for_each_point(nullptr, 0, kUncapped, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ForEachPoint, BudgetLargerThanThePointsStartsOneThreadPerPoint) {
  ThreadBudget budget(16);
  std::vector<std::thread::id> ran_on(3);
  std::atomic<int> arrived{0};
  for_each_point(&budget, ran_on.size(), kUncapped, [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
    // Hold every point until all three run at once: with fewer threads
    // than points this would wait forever, so bound it.
    ++arrived;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrived.load() < 3 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  EXPECT_EQ(arrived.load(), 3);
  EXPECT_NE(ran_on[0], ran_on[1]);
  EXPECT_NE(ran_on[1], ran_on[2]);
  EXPECT_NE(ran_on[0], ran_on[2]);
  // Only the two helpers the three points needed were taken.
  int spare = 0;
  while (budget.try_take()) ++spare;
  EXPECT_EQ(spare, 15);
}

TEST(ForEachPoint, NestedLoopsStayWithinTheBudget) {
  constexpr std::size_t kThreads = 4;
  ThreadBudget budget(kThreads);
  std::atomic<int> in_flight{0};
  std::atomic<int> most{0};
  std::atomic<int> inner_runs{0};
  for_each_point(&budget, 6, kUncapped, [&](std::size_t) {
    for_each_point(&budget, 9, kMaxPointsInFlight, [&](std::size_t) {
      const int now = ++in_flight;
      int seen = most.load();
      while (now > seen && !most.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      --in_flight;
      ++inner_runs;
    });
  });
  EXPECT_EQ(inner_runs.load(), 6 * 9);
  EXPECT_GE(most.load(), 1);
  EXPECT_LE(most.load(), static_cast<int>(kThreads));
}

TEST(ForEachPoint, CapBoundsThePointsInFlight) {
  ThreadBudget budget(8);
  std::atomic<int> in_flight{0};
  std::atomic<int> most{0};
  for_each_point(&budget, 20, 2, [&](std::size_t) {
    const int now = ++in_flight;
    int seen = most.load();
    while (now > seen && !most.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    --in_flight;
  });
  EXPECT_LE(most.load(), 2);
}

TEST(ForEachPoint, ThrowingPointIsReportedAfterEveryHelperJoined) {
  for (const std::size_t threads : {1, 4}) {
    ThreadBudget budget(threads);
    std::atomic<int> running{0};
    std::atomic<int> still_running_at_throw{-1};
    std::vector<std::atomic<int>> runs(40);
    try {
      for_each_point(&budget, runs.size(), kUncapped, [&](std::size_t i) {
        ++running;
        ++runs[i];
        if (i == 5 || i == 9) {
          throw std::runtime_error("point " + std::to_string(i));
        }
        std::this_thread::sleep_for(std::chrono::microseconds(300));
        --running;
      });
      ADD_FAILURE() << "no exception, threads " << threads;
    } catch (const std::runtime_error& e) {
      // Every helper has joined: the only points still counted as running
      // are the ones that threw.
      still_running_at_throw = running.load();
      EXPECT_STREQ(e.what(), "point 5") << "threads " << threads;
    }
    EXPECT_GE(still_running_at_throw.load(), 1);
    EXPECT_LE(still_running_at_throw.load(), 2);
    // Every index below the failure ran; none ran twice.
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_LE(runs[i].load(), 1) << i;
      if (i <= 5) {
        EXPECT_EQ(runs[i].load(), 1) << i;
      }
    }
    for (std::size_t t = 1; t < threads; ++t) EXPECT_TRUE(budget.try_take());
    EXPECT_FALSE(budget.try_take());
  }
}

TEST(ForEachPoint, ContextWithoutBudgetRunsInTheCallingThread) {
  const ScenarioContext ctx(1, true, {}, {});
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  for_each_point(ctx, 5, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;
  });
  EXPECT_EQ(calls, 5);
}

}  // namespace
}  // namespace stopwatch::experiment
