// Scenario E7 — Paper Fig. 8 (Appendix): expected delay induced by
// StopWatch's median versus additive uniform noise U(0, b) calibrated to
// equal defensive strength (the same observations needed at each
// confidence). Δn is chosen so Pr[|X1 - X1'| <= Δn] >= 0.9999, as in the
// paper.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "experiment/registry.hpp"
#include "stats/detection.hpp"
#include "stats/distribution.hpp"
#include "stats/order_statistics.hpp"

namespace stopwatch::bench {
namespace {

using experiment::ParamSpec;
using experiment::Result;
using experiment::ScenarioContext;
using namespace stopwatch::stats;

/// Pr[|X - X'| > d] for X ~ Exp(l1), X' ~ Exp(l2), independent.
double tail_abs_diff(double l1, double l2, double d) {
  return l2 / (l1 + l2) * std::exp(-l1 * d) +
         l1 / (l1 + l2) * std::exp(-l2 * d);
}

double solve_delta_n(double l1, double l2, double eps = 1e-4) {
  double lo = 0.0;
  double hi = 1.0;
  while (tail_abs_diff(l1, l2, hi) > eps) hi *= 2.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (tail_abs_diff(l1, l2, mid) > eps) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

struct MedianSetting {
  std::shared_ptr<Exponential> base{std::make_shared<Exponential>(1.0)};
  std::shared_ptr<Exponential> victim;

  explicit MedianSetting(double lambda_victim)
      : victim(std::make_shared<Exponential>(lambda_victim)) {}

  [[nodiscard]] double null_cdf(double x) const {
    const double f = base->cdf(x);
    return median_of_three_cdf(f, f, f);
  }
  [[nodiscard]] double alt_cdf(double x) const {
    return median_of_three_cdf(victim->cdf(x), base->cdf(x), base->cdf(x));
  }
};

/// Observations needed to distinguish Exp(1)+U(0,b) from Exp(λ')+U(0,b).
long noise_observations(double lambda_victim, double b, double confidence,
                        int conv_points) {
  auto x = std::make_shared<Exponential>(1.0);
  auto xv = std::make_shared<Exponential>(lambda_victim);
  auto noise = std::make_shared<Uniform>(0.0, b);
  const SumOfIndependent null_d(x, noise, conv_points);
  const SumOfIndependent alt_d(xv, noise, conv_points);
  const ChiSquaredDetector det([&null_d](double v) { return null_d.cdf(v); },
                               [&alt_d](double v) { return alt_d.cdf(v); },
                               0.0, 30.0 + b);
  return det.observations_needed(confidence);
}

/// Minimum b giving at least `target` observations at `confidence`.
double calibrate_noise(double lambda_victim, long target, double confidence,
                       int iters, int conv_points) {
  double lo = 0.01;
  double hi = 1.0;
  while (noise_observations(lambda_victim, hi, confidence, conv_points) <
         target) {
    hi *= 2.0;
    if (hi > 4096.0) return hi;  // cap: noise cannot reach the target
  }
  for (int i = 0; i < iters; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (noise_observations(lambda_victim, mid, confidence, conv_points) <
        target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

/// Adds one panel (one victim λ') and returns noise-delay / StopWatch-delay
/// at the highest confidence for the cross-panel comparison.
double add_setting(Result& result, const std::string& prefix,
                   double lambda_victim, const std::vector<double>& confs,
                   int iters, int conv_points) {
  const MedianSetting s(lambda_victim);
  const double delta_n = solve_delta_n(1.0, lambda_victim);
  const ChiSquaredDetector median_det(
      [&s](double x) { return s.null_cdf(x); },
      [&s](double x) { return s.alt_cdf(x); }, 0.0, 30.0);

  // Expected values of the medians (numeric integration of the CDFs).
  const double e_med_null =
      mean_from_cdf([&s](double x) { return s.null_cdf(x); }, 60.0);
  const double e_med_victim =
      mean_from_cdf([&s](double x) { return s.alt_cdf(x); }, 60.0);

  result.add_metric(prefix + "_delta_n", delta_n, "time units");
  std::vector<double> n_sw_series;
  std::vector<double> noise_b_series;
  std::vector<double> noise_delay_series;
  std::vector<double> stopwatch_delay_series;
  double ratio_last = 0.0;
  for (const double conf : confs) {
    const long n_sw = median_det.observations_needed(conf);
    const double b =
        calibrate_noise(lambda_victim, n_sw, conf, iters, conv_points);
    n_sw_series.push_back(static_cast<double>(n_sw));
    noise_b_series.push_back(b);
    noise_delay_series.push_back(1.0 + b / 2.0);
    stopwatch_delay_series.push_back(e_med_null + delta_n);
    ratio_last = (1.0 + b / 2.0) / (e_med_null + delta_n);
  }
  result.add_series(prefix + "_confidence", "", confs);
  result.add_series(prefix + "_obs_needed_stopwatch", "observations",
                    n_sw_series);
  result.add_series(prefix + "_calibrated_noise_b", "time units",
                    noise_b_series);
  result.add_series(prefix + "_expected_delay_noise", "time units",
                    noise_delay_series);
  result.add_series(prefix + "_expected_delay_stopwatch", "time units",
                    stopwatch_delay_series);
  result.add_metric(prefix + "_expected_median_null", e_med_null,
                    "time units");
  result.add_metric(prefix + "_expected_median_victim", e_med_victim,
                    "time units");
  result.add_metric(prefix + "_noise_over_stopwatch_delay", ratio_last, "x");
  return ratio_last;
}

Result run(const ScenarioContext& ctx) {
  const int iters = ctx.param_int("calibration_iters");
  const int conv_points = ctx.param_int("convolution_points");
  const std::vector<double> confs =
      ctx.smoke() ? std::vector<double>{0.90, 0.99}
                  : std::vector<double>{0.70, 0.80, 0.90, 0.99};

  Result result("fig8_noise_comparison");
  const double distinct =
      add_setting(result, "fig8a", 0.5, confs, iters, conv_points);
  const double close =
      add_setting(result, "fig8b", 10.0 / 11.0, confs, iters, conv_points);
  result.set_note(
      "Paper shape check (Appendix): the median's delay scales better than "
      "equal-strength uniform noise as victim distinctiveness grows — "
      "noise/StopWatch delay is " +
      std::to_string(close) + "x at lambda'=10/11 vs " +
      std::to_string(distinct) + "x at lambda'=1/2.");
  return result;
}

[[maybe_unused]] const experiment::ScenarioRegistrar kRegistrar{{
    .name = "fig8_noise_comparison",
    .description =
        "Fig. 8: expected delay of StopWatch's median vs equal-strength "
        "additive uniform noise",
    .params = {ParamSpec{"calibration_iters",
                         "bisection iterations when calibrating noise b",
                         40.0, 10.0}.with_int_range(1, 1000),
               ParamSpec{"convolution_points",
                         "grid points for the Exp+Uniform convolution", 256.0,
                         96.0}.with_int_range(8, 100000)},
    .run = run,
}};

}  // namespace
}  // namespace stopwatch::bench
