// Bounded-memory time-series rollups keyed by *sim-time* windows.
//
// The churn/open-loop roadmap item wants tail-latency-over-time and
// leakage-bits-over-time series that survive multi-hour simulated
// horizons without growing. A TimeSeries keeps a fixed budget of
// consecutive windows, each an obs::PlainHistogram (count / sum / max and
// power-of-two buckets). When the horizon outgrows the budget the window
// width doubles and adjacent windows merge pairwise, so memory is
// O(max_windows) for any horizon while the series keeps full coverage.
//
// Determinism rules:
//  * Everything is keyed by sim time and written by exactly one thread
//    (the owner core of the producing component), so the snapshot is a
//    pure function of the recorded (t, value) sequence — byte-identical
//    across sim_shards and --jobs, which is why the serialized
//    `timeseries` block participates in the cross-shard identity tests
//    (unlike the shard-dependent `observability` block).
//  * Coarsening is triggered only by sim-time window indices, never by
//    wall clock or allocation pressure.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace stopwatch::obs {

/// Snapshot for serialization: non-empty windows with their start times.
struct TimeSeriesSnapshot {
  std::int64_t window_ns{0};
  std::uint64_t budget_windows{0};
  std::vector<std::pair<std::int64_t, HistogramSnapshot>> windows;
};

class TimeSeries {
 public:
  /// Windows start at sim time 0 with width `initial_window_ns`; at most
  /// `max_windows` are ever held (width doubles when the horizon
  /// overflows). Both must be positive.
  TimeSeries(std::int64_t initial_window_ns, std::size_t max_windows);

  /// Records `value` at sim time `t_ns` (negative clamps to window 0).
  /// Single-writer by contract.
  void record(std::int64_t t_ns, std::uint64_t value);

  [[nodiscard]] TimeSeriesSnapshot snapshot() const;

  [[nodiscard]] std::int64_t window_ns() const { return window_ns_; }
  [[nodiscard]] std::size_t window_count() const { return windows_.size(); }

  /// Bytes held by the window ring — capacity is reserved up front and
  /// never grows past the budget. No scenario reads it: it is the
  /// fixed-budget test's oracle, the one observer of the ring's capacity
  /// (window_count() sees only the windows in use).
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  void coarsen();

  std::int64_t window_ns_;
  std::size_t max_windows_;
  std::vector<PlainHistogram> windows_;  // dense from window index 0
};

}  // namespace stopwatch::obs
