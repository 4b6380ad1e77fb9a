#include "leakage/observation_log.hpp"

#include <bit>
#include <cstdio>
#include <sstream>

#include "common/contracts.hpp"

namespace stopwatch::leakage {

ObservationLog::ObservationLog(ObservationLogConfig cfg)
    : cfg_(cfg), rng_(SplitMix64(cfg.seed ^ 0x0b5e7a71ULL).next()) {
  SW_EXPECTS(cfg_.reservoir_capacity >= 1);
}

void ObservationLog::record(int secret_class, double value) {
  SW_EXPECTS(secret_class >= 0);
  ClassSlot& slot = classes_[secret_class];
  ++slot.seen;
  ++total_;
  if (slot.reservoir.size() < cfg_.reservoir_capacity) {
    slot.reservoir.push_back(value);
    return;
  }
  // Algorithm R: the i-th record replaces a uniformly chosen slot with
  // probability capacity/i, keeping the reservoir a uniform sample.
  const auto j = static_cast<std::uint64_t>(rng_.uniform_int(
      0, static_cast<std::int64_t>(slot.seen) - 1));
  if (j < cfg_.reservoir_capacity) {
    slot.reservoir[static_cast<std::size_t>(j)] = value;
  }
}

std::vector<int> ObservationLog::classes() const {
  std::vector<int> out;
  out.reserve(classes_.size());
  for (const auto& [cls, slot] : classes_) out.push_back(cls);
  return out;
}

const std::vector<double>& ObservationLog::samples(int cls) const {
  const auto it = classes_.find(cls);
  SW_EXPECTS_MSG(it != classes_.end(),
                 "ObservationLog has no samples for secret class " +
                     std::to_string(cls));
  return it->second.reservoir;
}

std::vector<double> ObservationLog::pooled_samples() const {
  std::vector<double> out;
  for (const auto& [cls, slot] : classes_) {
    out.insert(out.end(), slot.reservoir.begin(), slot.reservoir.end());
  }
  return out;
}

std::string ObservationLog::serialize() const {
  std::ostringstream out;
  out << "observation-log/1 capacity=" << cfg_.reservoir_capacity
      << " total=" << total_ << "\n";
  char buf[32];
  for (const auto& [cls, slot] : classes_) {
    out << "class " << cls << " seen=" << slot.seen << " samples=";
    for (const double v : slot.reservoir) {
      std::snprintf(buf, sizeof(buf), "%016llx",
                    static_cast<unsigned long long>(
                        std::bit_cast<std::uint64_t>(v)));
      out << buf << ",";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace stopwatch::leakage
