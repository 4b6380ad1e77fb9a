// The thread pool behind `stopwatch_bench --jobs`: every submitted task
// runs exactly once and destruction drains the queue — the properties the
// parallel runner's determinism rests on.
#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <vector>

#include "common/contracts.hpp"

namespace stopwatch {
namespace {

TEST(ThreadPool, RunsEverySubmittedTaskExactlyOnce) {
  constexpr std::size_t kTasks = 200;
  std::vector<std::atomic<int>> hits(kTasks);
  {
    ThreadPool pool(4);
    for (std::size_t i = 0; i < kTasks; ++i) {
      pool.submit([&hits, i] { hits[i].fetch_add(1); });
    }
  }  // Destructor drains the queue and joins.
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPool, SingleThreadPreservesSubmissionOrder) {
  std::vector<int> order;
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      pool.submit([&order, i] { order.push_back(i); });
    }
  }
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, RejectsInvalidConstructionAndTasks) {
  EXPECT_THROW(ThreadPool(0), ContractViolation);
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), ContractViolation);
}

TEST(RecommendedJobs, ZeroMeansHardwareConcurrency) {
  EXPECT_EQ(recommended_jobs(1), 1u);
  EXPECT_EQ(recommended_jobs(7), 7u);
  EXPECT_GE(recommended_jobs(0), 1u);
}

}  // namespace
}  // namespace stopwatch
