// Lock-free metrics primitives for the observability layer.
//
// Design rules, all serving deterministic output:
//  * One bucket type, in two flavors: the atomic Histogram and the
//    single-writer PlainHistogram (a TimeSeries window). Both use fixed
//    power-of-two bucket edges — bucket i counts values whose bit_width
//    is i, i.e. [2^(i-1), 2^i), with bucket 0 holding exactly the zeros —
//    so the bucket layout never depends on the data.
//  * Every mutation is commutative (adds and a max), so a snapshot taken
//    after the writers quiesce is independent of the interleaving:
//    permuting the merge/record order cannot change it, which is what
//    lets one shared histogram serve concurrent Network::send callers on
//    different simulator cores.
//  * The Registry itself is single-threaded — histograms are created at
//    cloud construction (before any worker runs) and counters are copied
//    in at scenario end; only Histogram::record is concurrent.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace stopwatch::obs {

/// Deterministic point-in-time view of either Histogram flavor.
struct HistogramSnapshot {
  std::uint64_t count{0};
  std::uint64_t sum{0};
  std::uint64_t max{0};
  /// (bucket index, count) for non-empty buckets, ascending. Bucket i
  /// holds values in [2^(i-1), 2^i); bucket 0 holds exactly the zeros.
  std::vector<std::pair<int, std::uint64_t>> buckets;
};

namespace detail {

/// Relaxed-atomic cell: adds and a CAS max, safe from any thread.
class AtomicCell {
 public:
  void add(std::uint64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void raise(std::uint64_t x) {
    std::uint64_t seen = v_.load(std::memory_order_relaxed);
    while (x > seen &&
           !v_.compare_exchange_weak(seen, x, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t load() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Single-writer cell.
class PlainCell {
 public:
  void add(std::uint64_t n) { v_ += n; }
  void raise(std::uint64_t x) { v_ = std::max(v_, x); }
  [[nodiscard]] std::uint64_t load() const { return v_; }

 private:
  std::uint64_t v_{0};
};

}  // namespace detail

/// Log-bucketed histogram of unsigned values: count, sum, max and one
/// counter per power-of-two bucket. The cell type picks the flavor; see
/// Histogram and PlainHistogram below.
template <typename Cell>
class BasicHistogram {
 public:
  void record(std::uint64_t value) {
    buckets_[std::bit_width(value)].add(1);
    count_.add(1);
    sum_.add(value);
    max_.raise(value);
  }

  /// Folds `other` in bucket-wise: merging equals recording the
  /// concatenated stream.
  void merge(const BasicHistogram& other) {
    for (int i = 0; i < kBuckets; ++i) {
      buckets_[i].add(other.buckets_[i].load());
    }
    count_.add(other.count_.load());
    sum_.add(other.sum_.load());
    max_.raise(other.max_.load());
  }

  [[nodiscard]] std::uint64_t count() const { return count_.load(); }

  [[nodiscard]] HistogramSnapshot snapshot() const {
    HistogramSnapshot snap{count_.load(), sum_.load(), max_.load(), {}};
    for (int i = 0; i < kBuckets; ++i) {
      const std::uint64_t n = buckets_[i].load();
      if (n != 0) snap.buckets.emplace_back(i, n);
    }
    return snap;
  }

 private:
  static constexpr int kBuckets = 65;  // bit_width of a uint64 is in [0, 64]
  std::array<Cell, kBuckets> buckets_{};
  Cell count_;
  Cell sum_;
  Cell max_;
};

/// Atomic flavor: any thread may record (one shared histogram serves
/// every simulator core's Network::send).
using Histogram = BasicHistogram<detail::AtomicCell>;

/// Plain flavor for a single writer, e.g. one TimeSeries window.
using PlainHistogram = BasicHistogram<detail::PlainCell>;

/// End-of-run registry snapshot: counters, gauges, and histograms sorted
/// by name, ready for deterministic serialization into a Result's
/// `observability` block.
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// Level/occupancy readings (high-water marks, byte footprints) —
  /// semantically "how much was held" vs a counter's "how often". Gauges
  /// recorded into deterministic output must themselves be deterministic;
  /// wall-clock/RSS readings belong in the `profile` block instead.
  std::vector<std::pair<std::string, std::uint64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Named metrics, owned by one cloud/scenario. Components keep their own
/// cheap always-on counters (plain or relaxed-atomic integers on their
/// hot paths); the owner copies them in through set_counter at scenario
/// end, so the registry never sits on a hot path.
class Registry {
 public:
  /// The named histogram, created on first use. Call during setup
  /// (single-threaded); the returned pointer is stable for the registry's
  /// lifetime and safe to record into from any thread.
  [[nodiscard]] Histogram* histogram(const std::string& name);

  /// Sets a counter's end-of-run value (single-threaded; last write wins).
  void set_counter(const std::string& name, std::uint64_t value);

  /// Sets a gauge's end-of-run value (single-threaded; last write wins).
  void set_gauge(const std::string& name, std::uint64_t value);

  [[nodiscard]] Snapshot snapshot() const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, std::uint64_t> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace stopwatch::obs
