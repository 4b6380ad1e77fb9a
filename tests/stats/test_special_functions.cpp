#include "stats/special_functions.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"

namespace stopwatch::stats {
namespace {

TEST(SpecialFunctions, LogGammaMatchesKnownValues) {
  // Γ(n) = (n-1)! at integers; half-integers via Γ(1/2) = sqrt(pi). The
  // local Lanczos log_gamma replaces std::lgamma (whose signgam global made
  // it thread-unsafe under the --jobs runner).
  EXPECT_NEAR(log_gamma(1.0), 0.0, 1e-13);
  EXPECT_NEAR(log_gamma(2.0), 0.0, 1e-13);
  EXPECT_NEAR(log_gamma(5.0), std::log(24.0), 1e-12);
  EXPECT_NEAR(log_gamma(11.0), std::log(3628800.0), 1e-11);
  EXPECT_NEAR(log_gamma(0.5), 0.5 * std::log(3.14159265358979323846), 1e-12);
  // Reflection branch (x < 0.5): Γ(0.25) = 3.6256099082219083...
  EXPECT_NEAR(log_gamma(0.25), std::log(3.6256099082219083), 1e-12);
  // Large argument (Stirling regime), value from reference tables.
  EXPECT_NEAR(log_gamma(100.0), 359.13420536957540, 1e-9);
  EXPECT_THROW(static_cast<void>(log_gamma(0.0)), ContractViolation);
}

TEST(SpecialFunctions, GammaPBoundaries) {
  EXPECT_DOUBLE_EQ(regularized_gamma_p(1.0, 0.0), 0.0);
  EXPECT_NEAR(regularized_gamma_p(1.0, 50.0), 1.0, 1e-12);
}

TEST(SpecialFunctions, GammaPMatchesExponentialCdf) {
  // P(1, x) = 1 - e^{-x}.
  for (double x : {0.1, 0.5, 1.0, 2.0, 5.0}) {
    EXPECT_NEAR(regularized_gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-10);
  }
}

TEST(SpecialFunctions, ChiSquaredCdfKnownValues) {
  // Chi-squared with k=2 is Exp(1/2): CDF(x) = 1 - e^{-x/2}.
  for (double x : {0.5, 1.0, 2.0, 5.991}) {
    EXPECT_NEAR(chi_squared_cdf(x, 2.0), 1.0 - std::exp(-x / 2.0), 1e-10);
  }
  // Standard table values.
  EXPECT_NEAR(chi_squared_cdf(3.841, 1.0), 0.95, 1e-3);
  EXPECT_NEAR(chi_squared_cdf(16.919, 9.0), 0.95, 1e-3);
}

TEST(SpecialFunctions, ChiSquaredInverseRoundTrips) {
  for (double k : {1.0, 2.0, 5.0, 9.0, 30.0}) {
    for (double p : {0.1, 0.5, 0.7, 0.9, 0.95, 0.99}) {
      const double x = chi_squared_inverse_cdf(p, k);
      EXPECT_NEAR(chi_squared_cdf(x, k), p, 1e-9) << "k=" << k << " p=" << p;
    }
  }
}

TEST(SpecialFunctions, ChiSquaredInverseTableValues) {
  EXPECT_NEAR(chi_squared_inverse_cdf(0.95, 1.0), 3.841, 5e-3);
  EXPECT_NEAR(chi_squared_inverse_cdf(0.99, 9.0), 21.666, 5e-3);
  EXPECT_NEAR(chi_squared_inverse_cdf(0.95, 9.0), 16.919, 5e-3);
}

TEST(SpecialFunctions, NormalCdfSymmetry) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  for (double x : {0.5, 1.0, 1.96, 3.0}) {
    EXPECT_NEAR(normal_cdf(x) + normal_cdf(-x), 1.0, 1e-12);
  }
  EXPECT_NEAR(normal_cdf(1.959963985), 0.975, 1e-6);
}

TEST(SpecialFunctions, NormalInverseRoundTrips) {
  for (double p : {0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999}) {
    EXPECT_NEAR(normal_cdf(normal_inverse_cdf(p)), p, 1e-9);
  }
}

TEST(SpecialFunctions, ContractsRejectBadArguments) {
  EXPECT_THROW((void)regularized_gamma_p(0.0, 1.0), ContractViolation);
  EXPECT_THROW((void)regularized_gamma_p(1.0, -1.0), ContractViolation);
  EXPECT_THROW((void)chi_squared_inverse_cdf(1.0, 2.0), ContractViolation);
  EXPECT_THROW((void)normal_inverse_cdf(0.0), ContractViolation);
}

}  // namespace
}  // namespace stopwatch::stats
