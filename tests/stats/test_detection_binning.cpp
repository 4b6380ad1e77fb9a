// The two chi-squared cell layouts and their distinct sensitivities — the
// methodology choice documented in EXPERIMENTS.md (E1).
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "stats/detection.hpp"
#include "stats/order_statistics.hpp"

namespace stopwatch::stats {
namespace {

TEST(DetectionBinning, EqualWidthIsTailSensitiveForExponentials) {
  auto base = std::make_shared<Exponential>(1.0);
  auto victim = std::make_shared<Exponential>(0.5);
  const ChiSquaredDetector equal_width(
      [&](double x) { return base->cdf(x); },
      [&](double x) { return victim->cdf(x); }, 0.0, 30.0, 60,
      Binning::kEqualWidth);
  const ChiSquaredDetector equiprobable(
      [&](double x) { return base->cdf(x); },
      [&](double x) { return victim->cdf(x); }, 0.0, 30.0, 60,
      Binning::kEquiprobable);
  // The victim's heavy tail is where the evidence is; equal-width cells
  // keep it, equiprobable cells dilute it.
  EXPECT_GT(equal_width.noncentrality(), 2.0 * equiprobable.noncentrality());
}

TEST(DetectionBinning, MedianSuppressesTailEvidenceMoreThanBulk) {
  // The ratio (observations with StopWatch / without) is larger under the
  // tail-sensitive layout: the median's (F2+F3-2F2F3) factor vanishes in
  // the tails (Theorem 3), exactly where equal-width binning looks.
  auto base = std::make_shared<Exponential>(1.0);
  auto victim = std::make_shared<Exponential>(0.5);
  auto median_null = [&](double x) {
    const double f = base->cdf(x);
    return median_of_three_cdf(f, f, f);
  };
  auto median_alt = [&](double x) {
    return median_of_three_cdf(victim->cdf(x), base->cdf(x), base->cdf(x));
  };

  const auto ratio_for = [&](Binning binning) {
    const ChiSquaredDetector raw([&](double x) { return base->cdf(x); },
                                 [&](double x) { return victim->cdf(x); },
                                 0.0, 30.0, 60, binning);
    const ChiSquaredDetector med(median_null, median_alt, 0.0, 30.0, 60,
                                 binning);
    return static_cast<double>(med.observations_needed(0.95)) /
           static_cast<double>(raw.observations_needed(0.95));
  };
  EXPECT_GT(ratio_for(Binning::kEqualWidth),
            2.0 * ratio_for(Binning::kEquiprobable));
}

TEST(DetectionBinning, MoreBinsNeverHideAStrongSignal) {
  auto base = std::make_shared<Exponential>(1.0);
  auto victim = std::make_shared<Exponential>(0.25);
  for (int bins : {10, 20, 40, 80}) {
    const ChiSquaredDetector det([&](double x) { return base->cdf(x); },
                                 [&](double x) { return victim->cdf(x); },
                                 0.0, 30.0, bins, Binning::kEqualWidth);
    EXPECT_LE(det.observations_needed(0.95), 10) << bins << " bins";
  }
}

TEST(DetectionBinning, FromSamplesSupportsBothLayouts) {
  Rng rng(33);
  std::vector<double> a, b;
  for (int i = 0; i < 30000; ++i) {
    a.push_back(rng.exponential(1.0));
    b.push_back(rng.exponential(0.4));
  }
  const Ecdf ea(std::move(a)), eb(std::move(b));
  const auto ew =
      ChiSquaredDetector::from_samples(ea, eb, 40, Binning::kEqualWidth);
  const auto ep =
      ChiSquaredDetector::from_samples(ea, eb, 40, Binning::kEquiprobable);
  EXPECT_LT(ew.observations_needed(0.99), 100);
  EXPECT_LT(ep.observations_needed(0.99), 100);
}

}  // namespace
}  // namespace stopwatch::stats
