#include "obs/metrics.hpp"

namespace stopwatch::obs {

Histogram* Registry::histogram(const std::string& name) {
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

void Registry::set_counter(const std::string& name, std::uint64_t value) {
  counters_[name] = value;
}

void Registry::set_gauge(const std::string& name, std::uint64_t value) {
  gauges_[name] = value;
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, value] : counters_) {
    snap.counters.emplace_back(name, value);
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, value] : gauges_) {
    snap.gauges.emplace_back(name, value);
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    snap.histograms.emplace_back(name, hist->snapshot());
  }
  return snap;
}

}  // namespace stopwatch::obs
