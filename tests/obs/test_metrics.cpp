// The metrics layer's determinism contract: histogram buckets are fixed
// powers of two, every mutation commutes (so record order and thread
// interleaving cannot change a snapshot), the plain flavor merges exactly,
// and registry snapshots come out sorted by name — the properties the
// `observability` and `timeseries` report blocks and the cross-shard
// identity tests lean on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

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

void expect_same(const HistogramSnapshot& a, const HistogramSnapshot& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.buckets, b.buckets);
}

TEST(Histogram, BucketIndexIsBitWidth) {
  Histogram h;
  h.record(0);     // bucket 0: exactly the zeros
  h.record(1);     // bucket 1: [1, 2)
  h.record(2);     // bucket 2: [2, 4)
  h.record(3);     // bucket 2
  h.record(1024);  // bucket 11: [1024, 2048)
  h.record(2047);  // bucket 11

  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 6u);
  EXPECT_EQ(snap.sum, 0u + 1 + 2 + 3 + 1024 + 2047);
  EXPECT_EQ(snap.max, 2047u);
  const std::vector<std::pair<int, std::uint64_t>> expected = {
      {0, 1}, {1, 1}, {2, 2}, {11, 2}};
  EXPECT_EQ(snap.buckets, expected);
}

TEST(Histogram, SnapshotSkipsEmptyBucketsAndEmptyIsEmpty) {
  Histogram h;
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_TRUE(h.snapshot().buckets.empty());
  h.record(1u << 20);
  ASSERT_EQ(h.snapshot().buckets.size(), 1u);
  EXPECT_EQ(h.snapshot().buckets[0].first, 21);
}

TEST(Histogram, SnapshotIsIndependentOfRecordOrder) {
  // The merge-order determinism the sharded simulator relies on: the same
  // multiset of values, recorded forward, reversed, and split across
  // threads, must snapshot identically.
  const auto values = xorshift_stream(4096, 1'000'000);

  Histogram forward;
  for (const std::uint64_t v : values) forward.record(v);

  Histogram reversed;
  for (auto it = values.rbegin(); it != values.rend(); ++it) {
    reversed.record(*it);
  }

  Histogram threaded;
  {
    std::vector<std::thread> workers;
    const std::size_t stripe = values.size() / 4;
    for (int w = 0; w < 4; ++w) {
      workers.emplace_back([&threaded, &values, stripe, w] {
        const std::size_t begin = static_cast<std::size_t>(w) * stripe;
        const std::size_t end =
            w == 3 ? values.size() : begin + stripe;
        for (std::size_t i = begin; i < end; ++i) threaded.record(values[i]);
      });
    }
    for (std::thread& t : workers) t.join();
  }

  expect_same(forward.snapshot(), reversed.snapshot());
  expect_same(forward.snapshot(), threaded.snapshot());
}

TEST(Histogram, PlainFlavorMergeEqualsConcatenatedStream) {
  // The law TimeSeries coarsening leans on: hist(A) + hist(B) ==
  // hist(A ++ B), byte-exact, and the atomic flavor agrees.
  const auto values = xorshift_stream(8192, 1'000'000'000ULL);

  PlainHistogram whole;
  Histogram atomic_whole;
  for (const std::uint64_t v : values) {
    whole.record(v);
    atomic_whole.record(v);
  }

  PlainHistogram left;
  PlainHistogram right;
  for (std::size_t i = 0; i < values.size(); ++i) {
    (i < values.size() / 3 ? left : right).record(values[i]);
  }
  PlainHistogram merged = left;
  merged.merge(right);

  EXPECT_EQ(merged.count(), whole.count());
  expect_same(merged.snapshot(), whole.snapshot());
  expect_same(merged.snapshot(), atomic_whole.snapshot());
}

TEST(Histogram, PlainFlavorSnapshotIsIndependentOfRecordOrder) {
  // Same multiset, recorded forward vs reversed, snapshots identically;
  // an empty histogram has no buckets.
  const auto values = xorshift_stream(2048, 1u << 20);
  PlainHistogram forward;
  for (const std::uint64_t v : values) forward.record(v);
  PlainHistogram reversed;
  for (auto it = values.rbegin(); it != values.rend(); ++it) {
    reversed.record(*it);
  }
  expect_same(forward.snapshot(), reversed.snapshot());

  PlainHistogram small;
  EXPECT_TRUE(small.snapshot().buckets.empty());
  small.record(0);
  small.record(1);
  small.record(1);
  small.record(5);  // bit_width 3 -> bucket 3
  const std::vector<std::pair<int, std::uint64_t>> expected = {
      {0, 1}, {1, 2}, {3, 1}};
  EXPECT_EQ(small.snapshot().buckets, expected);
}

TEST(Registry, SnapshotSortedByNameAndLastWriteWins) {
  Registry reg;
  EXPECT_TRUE(reg.snapshot().empty());

  reg.set_counter("zeta", 1);
  reg.set_counter("alpha", 2);
  reg.set_counter("zeta", 3);  // overwrites
  Histogram* h = reg.histogram("bytes");
  EXPECT_EQ(h, reg.histogram("bytes"));  // stable pointer, created once
  h->record(7);

  const Snapshot snap = reg.snapshot();
  EXPECT_FALSE(snap.empty());
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[0].second, 2u);
  EXPECT_EQ(snap.counters[1].first, "zeta");
  EXPECT_EQ(snap.counters[1].second, 3u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].first, "bytes");
  EXPECT_EQ(snap.histograms[0].second.count, 1u);
  EXPECT_EQ(snap.histograms[0].second.max, 7u);
}

}  // namespace
}  // namespace stopwatch::obs
