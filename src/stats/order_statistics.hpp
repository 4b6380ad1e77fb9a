// Order statistics of independent (not necessarily identical) variables —
// the mathematical core of the paper's Appendix.
//
// StopWatch discloses only the *median* of three replica timings. For
// independent X1, X2, X3 with CDFs F1, F2, F3, the median's CDF is
//
//   F_{2:3}(x) = F1F2 + F1F3 + F2F3 - 2 F1F2F3            (Appendix)
//
// and Theorems 3/4 bound the Kolmogorov-Smirnov distance between the
// "no victim" and "one coresident victim" median distributions by (half) the
// distance between the underlying single-replica distributions.
#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "stats/distribution.hpp"

namespace stopwatch::stats {

/// CDF of the median of three independent variables with the given CDFs,
/// evaluated at x.
[[nodiscard]] double median_of_three_cdf(double f1, double f2, double f3);

/// CDF of the r-th smallest of m independent variables (general
/// Güngör et al. formula used in the Appendix proof):
///   F_{r:m}(x) = Σ_{ℓ=r..m} (-1)^{ℓ-r} C(ℓ-1, r-1) Σ_{|I|=ℓ} Π_{i∈I} F_i(x)
/// `f` holds the individual CDF values F_i(x). 1 <= r <= m = f.size().
[[nodiscard]] double order_statistic_cdf(const std::vector<double>& f, int r);

/// Builds the median-of-three distribution over three component
/// distributions. The returned object owns shared references to them.
/// No scenario calls it yet: it is the prediction ROADMAP item 12 compares
/// the measured egress distribution against.
[[nodiscard]] std::shared_ptr<Distribution> make_median_of_three(
    std::shared_ptr<const Distribution> d1,
    std::shared_ptr<const Distribution> d2,
    std::shared_ptr<const Distribution> d3);

/// Kolmogorov-Smirnov distance between two CDFs, max over a uniform grid of
/// `grid_points` points on [lo, hi]. No scenario calls it: it is the
/// distance of the paper's Theorems 3-4, which the order-statistics tests
/// check.
[[nodiscard]] double ks_distance(const std::function<double(double)>& f,
                                 const std::function<double(double)>& g,
                                 double lo, double hi, int grid_points = 4096);

/// The median of three concrete values (the operation each VMM performs on
/// proposed delivery times, Sec. V).
template <typename T>
[[nodiscard]] T median3(T a, T b, T c) {
  if (a > b) std::swap(a, b);
  if (b > c) std::swap(b, c);
  if (a > b) std::swap(a, b);
  return b;
}

}  // namespace stopwatch::stats
