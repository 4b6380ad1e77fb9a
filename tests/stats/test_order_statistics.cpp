#include "stats/order_statistics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/rng.hpp"
#include "stats/distribution.hpp"

namespace stopwatch::stats {
namespace {

TEST(OrderStatistics, Median3Values) {
  EXPECT_EQ(median3(1, 2, 3), 2);
  EXPECT_EQ(median3(3, 1, 2), 2);
  EXPECT_EQ(median3(2, 3, 1), 2);
  EXPECT_EQ(median3(5, 5, 1), 5);
  EXPECT_EQ(median3(7, 7, 7), 7);
  EXPECT_DOUBLE_EQ(median3(-1.0, 0.5, 0.25), 0.25);
}

TEST(OrderStatistics, MedianCdfMatchesClosedForm) {
  // For iid F, median-of-3 CDF is 3F^2 - 2F^3.
  for (double f : {0.0, 0.1, 0.3, 0.5, 0.8, 1.0}) {
    EXPECT_NEAR(median_of_three_cdf(f, f, f), 3 * f * f - 2 * f * f * f, 1e-12);
  }
}

TEST(OrderStatistics, GeneralFormulaAgreesWithMedianOfThree) {
  const std::vector<double> f{0.2, 0.55, 0.9};
  EXPECT_NEAR(order_statistic_cdf(f, 2), median_of_three_cdf(f[0], f[1], f[2]),
              1e-12);
}

TEST(OrderStatistics, MinAndMaxOfThree) {
  const std::vector<double> f{0.2, 0.5, 0.7};
  // Min: 1 - prod(1 - Fi); Max: prod(Fi).
  EXPECT_NEAR(order_statistic_cdf(f, 1), 1.0 - 0.8 * 0.5 * 0.3, 1e-12);
  EXPECT_NEAR(order_statistic_cdf(f, 3), 0.2 * 0.5 * 0.7, 1e-12);
}

TEST(OrderStatistics, CdfIsMonotoneInEachArgument) {
  double prev = -1.0;
  for (double f1 = 0.0; f1 <= 1.0; f1 += 0.05) {
    const double v = median_of_three_cdf(f1, 0.4, 0.6);
    EXPECT_GE(v, prev - 1e-12);
    prev = v;
  }
}

TEST(OrderStatistics, MedianOfThreeDistributionSamplesBetweenExtremes) {
  auto d1 = std::make_shared<Exponential>(1.0);
  auto d2 = std::make_shared<Exponential>(1.0);
  auto d3 = std::make_shared<Exponential>(1.0);
  auto med = make_median_of_three(d1, d2, d3);

  // The analytic median CDF at the exponential median point:
  // F(ln 2) = 0.5 per component -> median CDF = 3/8 + ... = 0.5.
  EXPECT_NEAR(med->cdf(std::log(2.0)), 0.5, 1e-9);

  // Mean of median-of-3 iid Exp(1) = 5/6 (order statistics of exponential).
  EXPECT_NEAR(mean_from_cdf([&med](double v) { return med->cdf(v); }, 100.0),
              5.0 / 6.0, 5e-3);
}

TEST(OrderStatistics, TheoremThreeKsContraction) {
  // Theorem 3: D(F_{2:3}, F'_{2:3}) < D(F_1, F'_1) when X2, X3 overlap.
  auto base = std::make_shared<Exponential>(1.0);
  auto victim = std::make_shared<Exponential>(0.5);

  auto f = [&](double x) {
    return median_of_three_cdf(base->cdf(x), base->cdf(x), base->cdf(x));
  };
  auto fp = [&](double x) {
    return median_of_three_cdf(victim->cdf(x), base->cdf(x), base->cdf(x));
  };
  const double d_median = ks_distance(f, fp, 0.0, 60.0);
  const double d_raw = ks_distance([&](double x) { return base->cdf(x); },
                                   [&](double x) { return victim->cdf(x); },
                                   0.0, 60.0);
  EXPECT_LT(d_median, d_raw);
}

TEST(OrderStatistics, TheoremFourHalvingWhenIdenticallyDistributed) {
  // Theorem 4: with X2 ~ X3, D(F_{2:3}, F'_{2:3}) <= D(F_1, F'_1) / 2.
  for (double lambda_victim : {0.2, 0.5, 0.75, 10.0 / 11.0}) {
    auto base = std::make_shared<Exponential>(1.0);
    auto victim = std::make_shared<Exponential>(lambda_victim);
    auto f = [&](double x) {
      return median_of_three_cdf(base->cdf(x), base->cdf(x), base->cdf(x));
    };
    auto fp = [&](double x) {
      return median_of_three_cdf(victim->cdf(x), base->cdf(x), base->cdf(x));
    };
    const double d_median = ks_distance(f, fp, 0.0, 120.0, 16384);
    const double d_raw = ks_distance([&](double x) { return base->cdf(x); },
                                     [&](double x) { return victim->cdf(x); },
                                     0.0, 120.0, 16384);
    EXPECT_LE(d_median, d_raw / 2.0 + 1e-9) << "lambda'=" << lambda_victim;
  }
}

class OrderStatisticBoundsTest : public ::testing::TestWithParam<int> {};

TEST_P(OrderStatisticBoundsTest, CdfWithinUnitIntervalForRandomInputs) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  for (int trial = 0; trial < 200; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(1, 7));
    std::vector<double> f;
    for (int i = 0; i < m; ++i) f.push_back(rng.uniform01());
    for (int r = 1; r <= m; ++r) {
      const double v = order_statistic_cdf(f, r);
      ASSERT_GE(v, 0.0);
      ASSERT_LE(v, 1.0);
    }
  }
}

TEST_P(OrderStatisticBoundsTest, HigherRankHasSmallerCdf) {
  // F_{r+1:m}(x) <= F_{r:m}(x): the (r+1)-th smallest exceeds the r-th.
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 977 + 3);
  for (int trial = 0; trial < 200; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(2, 7));
    std::vector<double> f;
    for (int i = 0; i < m; ++i) f.push_back(rng.uniform01());
    for (int r = 1; r < m; ++r) {
      ASSERT_LE(order_statistic_cdf(f, r + 1),
                order_statistic_cdf(f, r) + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderStatisticBoundsTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace stopwatch::stats
