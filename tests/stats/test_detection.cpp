#include "stats/detection.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "stats/order_statistics.hpp"

namespace stopwatch::stats {
namespace {

/// Reproduces the paper's Fig. 1 setting: baseline Exp(1), victim Exp(λ').
struct Fig1Setting {
  std::shared_ptr<Exponential> base = std::make_shared<Exponential>(1.0);
  std::shared_ptr<Exponential> victim;
  explicit Fig1Setting(double lambda_victim)
      : victim(std::make_shared<Exponential>(lambda_victim)) {}

  [[nodiscard]] ChiSquaredDetector without_stopwatch() const {
    return ChiSquaredDetector([b = base](double x) { return b->cdf(x); },
                              [v = victim](double x) { return v->cdf(x); },
                              0.0, 30.0);
  }
  [[nodiscard]] ChiSquaredDetector with_stopwatch() const {
    auto b = base;
    auto v = victim;
    auto null_cdf = [b](double x) {
      return median_of_three_cdf(b->cdf(x), b->cdf(x), b->cdf(x));
    };
    auto alt_cdf = [b, v](double x) {
      return median_of_three_cdf(v->cdf(x), b->cdf(x), b->cdf(x));
    };
    return ChiSquaredDetector(null_cdf, alt_cdf, 0.0, 30.0);
  }
};

TEST(Detection, IdenticalDistributionsAreUndetectable) {
  auto e = std::make_shared<Exponential>(1.0);
  const ChiSquaredDetector d([e](double x) { return e->cdf(x); },
                             [e](double x) { return e->cdf(x); }, 0.0, 30.0);
  EXPECT_NEAR(d.noncentrality(), 0.0, 1e-12);
  EXPECT_GT(d.observations_needed(0.95), 1000000000L);
}

TEST(Detection, ObservationsGrowWithConfidence) {
  const Fig1Setting s(0.5);
  const auto det = s.with_stopwatch();
  long prev = 0;
  for (double c : paper_confidence_grid()) {
    const long n = det.observations_needed(c);
    EXPECT_GE(n, prev);
    prev = n;
  }
}

TEST(Detection, StopWatchRequiresOrdersOfMagnitudeMoreObservations) {
  // The paper's headline claim for Fig. 1(b): with λ' = 1/2 the attacker
  // needs ~2 orders of magnitude more observations under StopWatch.
  const Fig1Setting s(0.5);
  const long without = s.without_stopwatch().observations_needed(0.99);
  const long with = s.with_stopwatch().observations_needed(0.99);
  EXPECT_LE(without, 10);  // paper: "a single observation" (order of 1)
  EXPECT_GE(with, 20 * without);
  // At the low end of the confidence grid the attacker without StopWatch
  // needs only a couple of observations.
  EXPECT_LE(s.without_stopwatch().observations_needed(0.70), 3);
}

TEST(Detection, CloserVictimDistributionIsHarderForBoth) {
  // Fig. 1(c): λ' = 10/11 needs far more observations than λ' = 1/2.
  const Fig1Setting far(0.5);
  const Fig1Setting close(10.0 / 11.0);
  EXPECT_GT(close.with_stopwatch().observations_needed(0.9),
            far.with_stopwatch().observations_needed(0.9));
  EXPECT_GT(close.without_stopwatch().observations_needed(0.9),
            far.without_stopwatch().observations_needed(0.9));
}

TEST(Detection, FromSamplesDetectsObviousShift) {
  Rng rng(21);
  std::vector<double> null_s, alt_s;
  for (int i = 0; i < 20000; ++i) {
    null_s.push_back(rng.exponential(1.0));
    alt_s.push_back(rng.exponential(0.25));
  }
  const auto det =
      ChiSquaredDetector::from_samples(Ecdf(std::move(null_s)), Ecdf(std::move(alt_s)));
  EXPECT_LE(det.observations_needed(0.99), 5);
}

TEST(Detection, FromSamplesSameDistributionNeedsMany) {
  Rng rng(22);
  std::vector<double> a, b;
  for (int i = 0; i < 40000; ++i) {
    a.push_back(rng.exponential(1.0));
    b.push_back(rng.exponential(1.0));
  }
  const auto det =
      ChiSquaredDetector::from_samples(Ecdf(std::move(a)), Ecdf(std::move(b)));
  // Finite-sample noise only; should need lots of observations.
  EXPECT_GT(det.observations_needed(0.99), 500);
}

class DetectionMonotonicityTest : public ::testing::TestWithParam<double> {};

TEST_P(DetectionMonotonicityTest, MedianAlwaysWeakensDetection) {
  // Property over a sweep of victim rates: StopWatch's median never makes
  // detection easier (Theorem 3 manifested through the chi-squared lens).
  const double lambda_victim = GetParam();
  const Fig1Setting s(lambda_victim);
  const long with = s.with_stopwatch().observations_needed(0.95);
  const long without = s.without_stopwatch().observations_needed(0.95);
  EXPECT_GE(with, without);
}

INSTANTIATE_TEST_SUITE_P(VictimRates, DetectionMonotonicityTest,
                         ::testing::Values(0.2, 0.33, 0.5, 0.66, 0.75, 0.9,
                                           10.0 / 11.0, 0.95));

}  // namespace
}  // namespace stopwatch::stats
