// Scenario E1 — Paper Fig. 1(a,b,c): analytic justification for the median.
//
// Baseline replicas observe timings ~ Exp(λ=1); a replica coresident with
// the victim observes ~ Exp(λ'). Reports the CDF grids of the four Fig. 1(a)
// curves (λ' = 1/2) and, for λ' ∈ {1/2, 10/11}, the observations needed to
// reject the "no victim" null at each confidence with and without StopWatch.
#include <memory>
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

struct Curves {
  std::shared_ptr<stats::Exponential> base;
  std::shared_ptr<stats::Exponential> victim;

  explicit Curves(double lambda_victim)
      : base(std::make_shared<stats::Exponential>(1.0)),
        victim(std::make_shared<stats::Exponential>(lambda_victim)) {}

  [[nodiscard]] double median_three_baselines(double x) const {
    const double f = base->cdf(x);
    return stats::median_of_three_cdf(f, f, f);
  }
  [[nodiscard]] double median_two_baselines_one_victim(double x) const {
    return stats::median_of_three_cdf(victim->cdf(x), base->cdf(x),
                                      base->cdf(x));
  }
};

/// Adds the w/ vs w/o StopWatch detection sweep for one victim λ'.
void add_detection_metrics(Result& result, const std::string& prefix,
                           double lambda_victim) {
  const Curves c(lambda_victim);
  const stats::ChiSquaredDetector with_sw(
      [&c](double x) { return c.median_three_baselines(x); },
      [&c](double x) { return c.median_two_baselines_one_victim(x); }, 0.0,
      30.0);
  const stats::ChiSquaredDetector without_sw(
      [&c](double x) { return c.base->cdf(x); },
      [&c](double x) { return c.victim->cdf(x); }, 0.0, 30.0);

  std::vector<double> confidences;
  std::vector<double> with_obs;
  std::vector<double> without_obs;
  for (const double conf : stats::paper_confidence_grid()) {
    confidences.push_back(conf);
    with_obs.push_back(
        static_cast<double>(with_sw.observations_needed(conf)));
    without_obs.push_back(
        static_cast<double>(without_sw.observations_needed(conf)));
  }
  result.add_series(prefix + "_confidence", "", confidences);
  result.add_series(prefix + "_obs_with_stopwatch", "observations", with_obs);
  result.add_series(prefix + "_obs_without_stopwatch", "observations",
                    without_obs);

  const long with99 = with_sw.observations_needed(0.99);
  const long without99 = without_sw.observations_needed(0.99);
  result.add_metric(prefix + "_obs99_with_stopwatch",
                    static_cast<double>(with99), "observations");
  result.add_metric(prefix + "_obs99_without_stopwatch",
                    static_cast<double>(without99), "observations");
  result.add_metric(prefix + "_strengthening_factor",
                    static_cast<double>(with99) / static_cast<double>(without99),
                    "x");
}

Result run(const ScenarioContext&) {
  Result result("fig1_median_analytic");

  // Fig. 1(a): the four CDF curves on x in [0, 6], λ' = 1/2.
  const Curves far(0.5);
  std::vector<double> xs;
  std::vector<double> cdf_base;
  std::vector<double> cdf_victim;
  std::vector<double> cdf_median3;
  std::vector<double> cdf_median2v;
  for (double x = 0.0; x <= 6.0001; x += 0.5) {
    xs.push_back(x);
    cdf_base.push_back(far.base->cdf(x));
    cdf_victim.push_back(far.victim->cdf(x));
    cdf_median3.push_back(far.median_three_baselines(x));
    cdf_median2v.push_back(far.median_two_baselines_one_victim(x));
  }
  result.add_series("fig1a_x", "", xs);
  result.add_series("fig1a_cdf_baseline", "", cdf_base);
  result.add_series("fig1a_cdf_victim", "", cdf_victim);
  result.add_series("fig1a_cdf_median_three_baselines", "", cdf_median3);
  result.add_series("fig1a_cdf_median_two_baselines_one_victim", "",
                    cdf_median2v);

  // Fig. 1(b): λ' = 1/2 (distinct victim); Fig. 1(c): λ' = 10/11 (close).
  add_detection_metrics(result, "fig1b", 0.5);
  add_detection_metrics(result, "fig1c", 10.0 / 11.0);

  result.set_note(
      "Paper shape check: without StopWatch the victim is detectable in ~1 "
      "observation; the median costs the attacker ~2 orders of magnitude "
      "more, and the gap widens as lambda' approaches 1.");
  return result;
}

[[maybe_unused]] const experiment::ScenarioRegistrar kRegistrar{{
    .name = "fig1_median_analytic",
    .description =
        "Fig. 1: analytic CDFs and detection cost of the median of three "
        "(baseline Exp(1) vs victim Exp(lambda'))",
    .params = {},
    .run = run,
}};

}  // namespace
}  // namespace stopwatch::bench
