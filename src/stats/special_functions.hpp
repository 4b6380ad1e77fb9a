// Special functions needed for the paper's statistical methodology:
// regularized incomplete gamma (-> chi-squared CDF and inverse CDF), used by
// the chi-squared "observations needed to detect the victim" analysis of
// Figs. 1, 4 and 8.
#pragma once

namespace stopwatch::stats {

/// ln Γ(x) for x > 0 (Lanczos approximation, ~1e-14 relative error).
/// Replaces std::lgamma, which is not thread-safe (it writes the global
/// `signgam`) — scenarios calling it concurrently under --jobs raced — and
/// additionally makes the value byte-identical across libm implementations.
[[nodiscard]] double log_gamma(double x);

/// Regularized lower incomplete gamma P(a, x) = γ(a,x) / Γ(a), for a > 0,
/// x >= 0. Series expansion for x < a+1, continued fraction otherwise.
[[nodiscard]] double regularized_gamma_p(double a, double x);

/// CDF of the chi-squared distribution with k degrees of freedom.
[[nodiscard]] double chi_squared_cdf(double x, double k);

/// Inverse CDF (quantile) of the chi-squared distribution with k degrees of
/// freedom: smallest x with CDF(x) >= p. Wilson-Hilferty starting point
/// refined by bisection/Newton.
[[nodiscard]] double chi_squared_inverse_cdf(double p, double k);

/// Standard normal CDF.
[[nodiscard]] double normal_cdf(double x);

/// Inverse of the standard normal CDF (Acklam's rational approximation,
/// refined with one Halley step).
[[nodiscard]] double normal_inverse_cdf(double p);

}  // namespace stopwatch::stats
