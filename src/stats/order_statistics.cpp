#include "stats/order_statistics.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace stopwatch::stats {

double median_of_three_cdf(double f1, double f2, double f3) {
  return f1 * f2 + f1 * f3 + f2 * f3 - 2.0 * f1 * f2 * f3;
}

namespace {

/// Binomial coefficient for the small arguments used here.
double choose(int n, int k) {
  if (k < 0 || k > n) return 0.0;
  double r = 1.0;
  for (int i = 1; i <= k; ++i) r = r * (n - k + i) / i;
  return r;
}

/// Sum over all subsets I of {0..m-1} with |I| = l of prod_{i in I} f[i],
/// i.e. the elementary symmetric polynomial e_l(f).
double elementary_symmetric(const std::vector<double>& f, int l) {
  const int m = static_cast<int>(f.size());
  // DP: e[j] after processing each element.
  std::vector<double> e(static_cast<std::size_t>(l) + 1, 0.0);
  e[0] = 1.0;
  for (int i = 0; i < m; ++i) {
    for (int j = std::min(l, i + 1); j >= 1; --j) {
      e[static_cast<std::size_t>(j)] += e[static_cast<std::size_t>(j - 1)] * f[static_cast<std::size_t>(i)];
    }
  }
  return e[static_cast<std::size_t>(l)];
}

}  // namespace

double order_statistic_cdf(const std::vector<double>& f, int r) {
  const int m = static_cast<int>(f.size());
  SW_EXPECTS(m >= 1);
  SW_EXPECTS(r >= 1 && r <= m);
  for (double fi : f) SW_EXPECTS(fi >= 0.0 && fi <= 1.0);

  double acc = 0.0;
  for (int l = r; l <= m; ++l) {
    const double sign = ((l - r) % 2 == 0) ? 1.0 : -1.0;
    acc += sign * choose(l - 1, r - 1) * elementary_symmetric(f, l);
  }
  // Numeric guard: a CDF stays within [0, 1].
  if (acc < 0.0) acc = 0.0;
  if (acc > 1.0) acc = 1.0;
  return acc;
}

std::shared_ptr<Distribution> make_median_of_three(
    std::shared_ptr<const Distribution> d1,
    std::shared_ptr<const Distribution> d2,
    std::shared_ptr<const Distribution> d3) {
  SW_EXPECTS(d1 && d2 && d3);
  auto cdf = [d1, d2, d3](double x) {
    return median_of_three_cdf(d1->cdf(x), d2->cdf(x), d3->cdf(x));
  };
  return std::make_shared<CdfDistribution>(cdf);
}

double ks_distance(const std::function<double(double)>& f,
                   const std::function<double(double)>& g, double lo,
                   double hi, int grid_points) {
  SW_EXPECTS(lo < hi);
  SW_EXPECTS(grid_points >= 2);
  double d = 0.0;
  for (int i = 0; i <= grid_points; ++i) {
    const double x = lo + (hi - lo) * i / grid_points;
    d = std::max(d, std::fabs(f(x) - g(x)));
  }
  return d;
}

}  // namespace stopwatch::stats
