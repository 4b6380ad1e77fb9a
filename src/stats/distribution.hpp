// Probability distributions used by the analytic experiments (Figs. 1 and 8)
// and by the simulator's noise models. A Distribution exposes its CDF, so the
// order-statistics machinery (median of three) can be composed over any mix
// of distributions, exactly as in the paper's Appendix.
#pragma once

#include <functional>
#include <memory>

#include "common/rng.hpp"

namespace stopwatch::stats {

/// Abstract real-valued distribution: CDF + sampling.
class Distribution {
 public:
  virtual ~Distribution() = default;

  /// P(X <= x).
  [[nodiscard]] virtual double cdf(double x) const = 0;
  /// Draw one sample.
  [[nodiscard]] virtual double sample(Rng& rng) const = 0;
  /// E[X]; computed analytically by concrete classes where possible.
  [[nodiscard]] virtual double mean() const = 0;
};

/// Exponential with rate lambda: the paper's model for packet inter-arrival
/// times (Fig. 1 footnote cites the Poisson-traffic literature).
class Exponential final : public Distribution {
 public:
  explicit Exponential(double lambda);
  [[nodiscard]] double cdf(double x) const override;
  [[nodiscard]] double sample(Rng& rng) const override;
  [[nodiscard]] double mean() const override;
  [[nodiscard]] double lambda() const { return lambda_; }

 private:
  double lambda_;
};

/// Uniform on [lo, hi]; U(0, b) is the additive-noise comparator of Fig. 8.
class Uniform final : public Distribution {
 public:
  Uniform(double lo, double hi);
  [[nodiscard]] double cdf(double x) const override;
  [[nodiscard]] double sample(Rng& rng) const override;
  [[nodiscard]] double mean() const override;

 private:
  double lo_, hi_;
};

/// Sum X + Y of two independent variables, CDF by numeric convolution over
/// the second variable's support (used for Exp + Uniform noise in Fig. 8).
class SumOfIndependent final : public Distribution {
 public:
  /// `quadrature_points` controls the accuracy of the convolution integral.
  SumOfIndependent(std::shared_ptr<const Distribution> x,
                   std::shared_ptr<const Uniform> uniform_noise,
                   int quadrature_points = 512);
  [[nodiscard]] double cdf(double x) const override;
  [[nodiscard]] double sample(Rng& rng) const override;
  [[nodiscard]] double mean() const override;

 private:
  std::shared_ptr<const Distribution> x_;
  std::shared_ptr<const Uniform> noise_;
  double noise_lo_, noise_hi_;
  int quadrature_points_;
};

/// Wraps an arbitrary CDF function as a Distribution (sampling by numeric
/// inversion). Used to treat a median-of-three CDF as a first-class
/// distribution.
class CdfDistribution final : public Distribution {
 public:
  /// `support_hi` bounds the numeric inversion search; the CDF must be
  /// monotone nondecreasing with cdf(0-) ~ 0 for nonnegative variables.
  CdfDistribution(std::function<double(double)> cdf_fn, double support_lo,
                  double support_hi);
  [[nodiscard]] double cdf(double x) const override;
  [[nodiscard]] double sample(Rng& rng) const override;
  [[nodiscard]] double mean() const override;

 private:
  std::function<double(double)> cdf_fn_;
  double lo_, hi_;
};

/// Numerically computes E[X] for a nonnegative variable from its CDF via
/// E[X] = ∫ (1 - F(x)) dx over [0, hi].
[[nodiscard]] double mean_from_cdf(const std::function<double(double)>& cdf,
                                   double hi, int steps = 20000);

/// Numerically inverts a monotone CDF: smallest x in [lo, hi] with
/// F(x) >= p.
[[nodiscard]] double invert_cdf(const std::function<double(double)>& cdf,
                                double p, double lo, double hi);

}  // namespace stopwatch::stats
