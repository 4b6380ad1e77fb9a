#include "obs/timeseries.hpp"

#include "common/contracts.hpp"

namespace stopwatch::obs {

TimeSeries::TimeSeries(std::int64_t initial_window_ns,
                       std::size_t max_windows)
    : window_ns_(initial_window_ns), max_windows_(max_windows) {
  SW_EXPECTS(initial_window_ns > 0);
  SW_EXPECTS(max_windows > 0);
  windows_.reserve(max_windows_);
}

void TimeSeries::record(std::int64_t t_ns, std::uint64_t value) {
  if (t_ns < 0) t_ns = 0;
  while (static_cast<std::uint64_t>(t_ns / window_ns_) >= max_windows_) {
    coarsen();
  }
  const auto idx = static_cast<std::size_t>(t_ns / window_ns_);
  if (idx >= windows_.size()) windows_.resize(idx + 1);
  windows_[idx].record(value);
}

void TimeSeries::coarsen() {
  // Double the width and fold adjacent windows pairwise: histograms
  // merge exactly, so the coarse series equals one built at the wide
  // width from the start.
  const std::size_t n = windows_.size();
  const std::size_t folded = (n + 1) / 2;
  for (std::size_t i = 0; i < folded; ++i) {
    windows_[i] = windows_[2 * i];
    if (2 * i + 1 < n) windows_[i].merge(windows_[2 * i + 1]);
  }
  windows_.resize(folded);
  window_ns_ *= 2;
}

TimeSeriesSnapshot TimeSeries::snapshot() const {
  TimeSeriesSnapshot snap;
  snap.window_ns = window_ns_;
  snap.budget_windows = max_windows_;
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    if (windows_[i].count() == 0) continue;
    snap.windows.emplace_back(static_cast<std::int64_t>(i) * window_ns_,
                              windows_[i].snapshot());
  }
  return snap;
}

std::size_t TimeSeries::memory_bytes() const {
  return sizeof(TimeSeries) + windows_.capacity() * sizeof(PlainHistogram);
}

}  // namespace stopwatch::obs
