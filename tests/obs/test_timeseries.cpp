// The bounded-memory time-series contract: coarsening folds windows into
// exactly what recording at the coarse width would have built, the
// TimeSeries window ring never holds more than its budget, and its memory
// footprint is fixed at construction — for any horizon. (The windows'
// merge law itself is tested with the Histogram in test_metrics.cpp.)
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/timeseries.hpp"

namespace stopwatch::obs {
namespace {

std::vector<std::uint64_t> xorshift_stream(std::size_t n, std::uint64_t mod) {
  std::vector<std::uint64_t> values;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    values.push_back(x % mod);
  }
  return values;
}

TEST(TimeSeries, CoarseningKeepsWindowCountWithinBudget) {
  // 8 windows of 100ns; recording out to 100x the initial horizon must
  // double the width (as many times as needed) instead of growing the
  // ring, with nothing dropped.
  TimeSeries series(100, 8);
  std::uint64_t recorded = 0;
  for (std::int64_t t = 0; t < 80'000; t += 93) {
    series.record(t, static_cast<std::uint64_t>(t % 1000));
    ++recorded;
    EXPECT_LE(series.window_count(), 8u);
  }
  // Width doubled from 100ns to cover 80us in <= 8 windows.
  EXPECT_GE(series.window_ns(), 80'000 / 8);
  // The snapshot's windows carry every recorded value between them.
  const TimeSeriesSnapshot snap = series.snapshot();
  std::uint64_t in_windows = 0;
  for (const auto& [start, w] : snap.windows) in_windows += w.count;
  EXPECT_EQ(in_windows, recorded);
}

TEST(TimeSeries, CoarseningPreservesRollupsExactly) {
  // A pairwise fold must behave exactly like recording into the coarser
  // windows from the start: count/sum/max and the buckets are mergeable,
  // so the two paths agree byte for byte.
  const auto values = xorshift_stream(4096, 1'000'000);
  TimeSeries fine(50, 4);      // will coarsen repeatedly
  TimeSeries coarse(6400, 4);  // already wide enough for the horizon
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto t = static_cast<std::int64_t>(i * 6);  // horizon 24576ns
    fine.record(t, values[i]);
    coarse.record(t, values[i]);
  }
  const TimeSeriesSnapshot a = fine.snapshot();
  const TimeSeriesSnapshot b = coarse.snapshot();
  EXPECT_EQ(a.window_ns, b.window_ns);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    EXPECT_EQ(a.windows[i].first, b.windows[i].first);
    EXPECT_EQ(a.windows[i].second.count, b.windows[i].second.count);
    EXPECT_EQ(a.windows[i].second.sum, b.windows[i].second.sum);
    EXPECT_EQ(a.windows[i].second.max, b.windows[i].second.max);
    EXPECT_EQ(a.windows[i].second.buckets, b.windows[i].second.buckets);
  }
}

TEST(TimeSeries, MemoryIsFixedAtConstructionForAnyHorizon) {
  // The fixed-budget guarantee: the ring reserves its budget up front and
  // memory_bytes() never moves, no matter how far the horizon runs.
  TimeSeries series(1000, 16);
  const std::size_t at_birth = series.memory_bytes();
  EXPECT_GT(at_birth, 0u);
  for (std::int64_t t = 0; t < 10'000'000; t += 977) {
    series.record(t, static_cast<std::uint64_t>(t));
    EXPECT_EQ(series.memory_bytes(), at_birth);
  }
  EXPECT_LE(series.window_count(), 16u);
}

TEST(TimeSeries, NegativeTimesClampToWindowZero) {
  TimeSeries series(100, 4);
  series.record(-5'000, 42);
  const TimeSeriesSnapshot snap = series.snapshot();
  ASSERT_EQ(snap.windows.size(), 1u);
  EXPECT_EQ(snap.windows[0].first, 0);
  EXPECT_EQ(snap.windows[0].second.max, 42u);
}

}  // namespace
}  // namespace stopwatch::obs
