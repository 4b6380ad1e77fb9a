#include "stats/distribution.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

namespace stopwatch::stats {
namespace {

TEST(Distribution, ExponentialCdf) {
  const Exponential e(2.0);
  EXPECT_DOUBLE_EQ(e.cdf(0.0), 0.0);
  EXPECT_NEAR(e.cdf(std::log(2.0) / 2.0), 0.5, 1e-12);
}

TEST(Distribution, UniformCdf) {
  const Uniform u(2.0, 6.0);
  EXPECT_DOUBLE_EQ(u.cdf(1.0), 0.0);
  EXPECT_DOUBLE_EQ(u.cdf(4.0), 0.5);
  EXPECT_DOUBLE_EQ(u.cdf(7.0), 1.0);
}

TEST(Distribution, SumOfIndependentHasCorrectMean) {
  auto x = std::make_shared<Exponential>(1.0);
  auto n = std::make_shared<Uniform>(0.0, 4.0);
  const SumOfIndependent s(x, n);
  EXPECT_NEAR(mean_from_cdf([&s](double v) { return s.cdf(v); }, 60.0),
              1.0 + 2.0, 1e-3);
}

TEST(Distribution, SumOfIndependentCdfIsSmoothedExponential) {
  auto x = std::make_shared<Exponential>(1.0);
  auto n = std::make_shared<Uniform>(0.0, 2.0);
  const SumOfIndependent s(x, n, 2048);
  // Closed form: P(X+N <= t) for t in (0, 2]:
  //  (1/2)∫_0^t (1 - e^{-(t-v)}) dv = (t - 1 + e^{-t}) / 2.
  for (double t : {0.5, 1.0, 1.5, 2.0}) {
    const double expected = (t - 1.0 + std::exp(-t)) / 2.0;
    EXPECT_NEAR(s.cdf(t), expected, 2e-3) << "t=" << t;
  }
}

TEST(Distribution, MeanFromCdf) {
  auto cdf = [](double v) { return v <= 0 ? 0.0 : 1.0 - std::exp(-2.0 * v); };
  EXPECT_NEAR(mean_from_cdf(cdf, 40.0), 0.5, 1e-4);
}

TEST(Distribution, InvertCdfFindsQuantile) {
  auto cdf = [](double v) { return v <= 0 ? 0.0 : 1.0 - std::exp(-v); };
  EXPECT_NEAR(invert_cdf(cdf, 0.5, 0.0, 100.0), std::log(2.0), 1e-9);
  EXPECT_NEAR(invert_cdf(cdf, 0.99, 0.0, 100.0), -std::log(0.01), 1e-7);
}

}  // namespace
}  // namespace stopwatch::stats
