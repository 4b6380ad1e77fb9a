#include "stats/distribution.hpp"

#include <cmath>
#include <utility>

#include "common/contracts.hpp"

namespace stopwatch::stats {

Exponential::Exponential(double lambda) : lambda_(lambda) { SW_EXPECTS(lambda > 0.0); }

double Exponential::cdf(double x) const {
  if (x <= 0.0) return 0.0;
  return 1.0 - std::exp(-lambda_ * x);
}

double Exponential::sample(Rng& rng) const { return rng.exponential(lambda_); }

double Exponential::mean() const { return 1.0 / lambda_; }

Uniform::Uniform(double lo, double hi) : lo_(lo), hi_(hi) { SW_EXPECTS(lo < hi); }

double Uniform::cdf(double x) const {
  if (x <= lo_) return 0.0;
  if (x >= hi_) return 1.0;
  return (x - lo_) / (hi_ - lo_);
}

double Uniform::sample(Rng& rng) const { return rng.uniform(lo_, hi_); }

double Uniform::mean() const { return 0.5 * (lo_ + hi_); }

SumOfIndependent::SumOfIndependent(std::shared_ptr<const Distribution> x,
                                   std::shared_ptr<const Uniform> uniform_noise,
                                   int quadrature_points)
    : x_(std::move(x)),
      noise_(std::move(uniform_noise)),
      quadrature_points_(quadrature_points) {
  SW_EXPECTS(x_ != nullptr);
  SW_EXPECTS(noise_ != nullptr);
  SW_EXPECTS(quadrature_points_ >= 8);
  // Recover [lo, hi] of the uniform via its quantiles.
  noise_lo_ = invert_cdf([this](double v) { return noise_->cdf(v); }, 1e-12,
                         -1e12, 1e12);
  noise_hi_ = invert_cdf([this](double v) { return noise_->cdf(v); },
                         1.0 - 1e-12, -1e12, 1e12);
}

double SumOfIndependent::cdf(double s) const {
  // P(X + N <= s) = (1/(hi-lo)) ∫_{lo}^{hi} F_X(s - n) dn  (midpoint rule).
  const double width = noise_hi_ - noise_lo_;
  const double h = width / quadrature_points_;
  double acc = 0.0;
  for (int i = 0; i < quadrature_points_; ++i) {
    const double n = noise_lo_ + (i + 0.5) * h;
    acc += x_->cdf(s - n);
  }
  return acc / quadrature_points_;
}

double SumOfIndependent::sample(Rng& rng) const {
  return x_->sample(rng) + noise_->sample(rng);
}

double SumOfIndependent::mean() const { return x_->mean() + noise_->mean(); }

CdfDistribution::CdfDistribution(std::function<double(double)> cdf_fn,
                                 double support_lo, double support_hi)
    : cdf_fn_(std::move(cdf_fn)), lo_(support_lo), hi_(support_hi) {
  SW_EXPECTS(cdf_fn_ != nullptr);
  SW_EXPECTS(lo_ < hi_);
}

double CdfDistribution::cdf(double x) const { return cdf_fn_(x); }

double CdfDistribution::sample(Rng& rng) const {
  return invert_cdf(cdf_fn_, rng.uniform01(), lo_, hi_);
}

double CdfDistribution::mean() const {
  // Valid for variables supported on [lo_, hi_]:
  // E[X] = lo + ∫_{lo}^{hi} (1 - F(x)) dx.
  const int steps = 20000;
  const double h = (hi_ - lo_) / steps;
  double acc = 0.0;
  for (int i = 0; i < steps; ++i) {
    const double x = lo_ + (i + 0.5) * h;
    acc += (1.0 - cdf_fn_(x)) * h;
  }
  return lo_ + acc;
}

double mean_from_cdf(const std::function<double(double)>& cdf, double hi,
                     int steps) {
  SW_EXPECTS(hi > 0.0);
  SW_EXPECTS(steps > 0);
  const double h = hi / steps;
  double acc = 0.0;
  for (int i = 0; i < steps; ++i) {
    const double x = (i + 0.5) * h;
    acc += (1.0 - cdf(x)) * h;
  }
  return acc;
}

double invert_cdf(const std::function<double(double)>& cdf, double p,
                  double lo, double hi) {
  SW_EXPECTS(p >= 0.0 && p <= 1.0);
  SW_EXPECTS(lo < hi);
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (cdf(mid) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo <= 1e-13 * (1.0 + std::fabs(hi))) break;
  }
  return 0.5 * (lo + hi);
}

}  // namespace stopwatch::stats
