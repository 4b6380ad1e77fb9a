// Empirical distributions built from measured samples (e.g., the virtual
// inter-packet delivery times collected in the Fig. 4 experiment).
#pragma once

#include <vector>

namespace stopwatch::stats {

/// Empirical CDF over a sample set; also provides quantiles and moments.
class Ecdf {
 public:
  explicit Ecdf(std::vector<double> samples);

  /// Fraction of samples <= x.
  [[nodiscard]] double cdf(double x) const;
  /// p-quantile using the nearest-rank method, p in [0, 1].
  [[nodiscard]] double quantile(double p) const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] std::size_t size() const { return sorted_.size(); }

 private:
  std::vector<double> sorted_;
  double mean_{0.0};
  double stddev_{0.0};
};

}  // namespace stopwatch::stats
