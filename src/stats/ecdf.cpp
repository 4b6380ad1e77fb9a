#include "stats/ecdf.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace stopwatch::stats {

Ecdf::Ecdf(std::vector<double> samples) : sorted_(std::move(samples)) {
  SW_EXPECTS(!sorted_.empty());
  std::sort(sorted_.begin(), sorted_.end());
  double acc = 0.0;
  for (double v : sorted_) acc += v;
  mean_ = acc / static_cast<double>(sorted_.size());
  double var = 0.0;
  for (double v : sorted_) var += (v - mean_) * (v - mean_);
  stddev_ = sorted_.size() > 1
                ? std::sqrt(var / static_cast<double>(sorted_.size() - 1))
                : 0.0;
}

double Ecdf::cdf(double x) const {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double Ecdf::quantile(double p) const {
  SW_EXPECTS(p >= 0.0 && p <= 1.0);
  if (p <= 0.0) return sorted_.front();
  const auto n = static_cast<double>(sorted_.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n));
  if (rank == 0) rank = 1;
  if (rank > sorted_.size()) rank = sorted_.size();
  return sorted_[rank - 1];
}

double Ecdf::min() const { return sorted_.front(); }
double Ecdf::max() const { return sorted_.back(); }
double Ecdf::mean() const { return mean_; }
double Ecdf::stddev() const { return stddev_; }

}  // namespace stopwatch::stats
