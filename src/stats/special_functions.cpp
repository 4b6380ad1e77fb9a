#include "stats/special_functions.hpp"

#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "common/contracts.hpp"

namespace stopwatch::stats {

namespace {

constexpr int kMaxIterations = 500;
constexpr double kEps = 1e-14;
constexpr double kFpMin = std::numeric_limits<double>::min() / kEps;
constexpr double kPi = 3.14159265358979323846;

/// Lanczos coefficients (g = 7, n = 9), accurate to ~1e-14 relative error
/// over the positive reals.
constexpr double kLanczos[] = {
    0.99999999999980993,     676.5203681218851,     -1259.1392167224028,
    771.32342877765313,      -176.61502916214059,   12.507343278686905,
    -0.13857109526572012,    9.9843695780195716e-6, 1.5056327351493116e-7};

/// Series representation of P(a, x), valid (fast-converging) for x < a + 1.
double gamma_p_series(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int i = 0; i < kMaxIterations; ++i) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::fabs(del) < std::fabs(sum) * kEps) break;
  }
  return sum * std::exp(-x + a * std::log(x) - log_gamma(a));
}

/// Continued-fraction representation of Q(a, x), valid for x >= a + 1
/// (modified Lentz's method).
double gamma_q_continued_fraction(double a, double x) {
  double b = x + 1.0 - a;
  double c = 1.0 / kFpMin;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIterations; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = b + an / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return std::exp(-x + a * std::log(x) - log_gamma(a)) * h;
}

}  // namespace

double log_gamma(double x) {
  SW_EXPECTS(x > 0.0);
  // Reflection keeps the Lanczos sum in its accurate range x >= 0.5.
  if (x < 0.5) return std::log(kPi / std::sin(kPi * x)) - log_gamma(1.0 - x);
  x -= 1.0;
  double sum = kLanczos[0];
  for (int i = 1; i < 9; ++i) {
    sum += kLanczos[i] / (x + static_cast<double>(i));
  }
  const double t = x + 7.5;
  return 0.5 * std::log(2.0 * kPi) + (x + 0.5) * std::log(t) - t +
         std::log(sum);
}

double regularized_gamma_p(double a, double x) {
  SW_EXPECTS(a > 0.0);
  SW_EXPECTS(x >= 0.0);
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return gamma_p_series(a, x);
  return 1.0 - gamma_q_continued_fraction(a, x);
}

double chi_squared_cdf(double x, double k) {
  SW_EXPECTS(k > 0.0);
  if (x <= 0.0) return 0.0;
  return regularized_gamma_p(k / 2.0, x / 2.0);
}

double chi_squared_inverse_cdf(double p, double k) {
  SW_EXPECTS(p >= 0.0 && p < 1.0);
  SW_EXPECTS(k > 0.0);
  if (p == 0.0) return 0.0;

  // Detection sweeps evaluate a fixed confidence grid against a handful of
  // dof values, so the same (p, k) recurs thousands of times per scenario
  // at ~8.4 us per cold solve. Exact-key memoization is sound here —
  // callers pass round constants — and thread_local keeps the parallel
  // runner contention-free. Bounded so adversarial key streams cannot grow
  // it without limit.
  thread_local std::map<std::pair<double, double>, double> memo;
  const std::pair<double, double> key{p, k};
  if (const auto it = memo.find(key); it != memo.end()) return it->second;

  // Wilson-Hilferty approximation as a starting point.
  const double z = normal_inverse_cdf(p);
  const double t = 1.0 - 2.0 / (9.0 * k) + z * std::sqrt(2.0 / (9.0 * k));
  double x = k * t * t * t;
  if (x <= 0.0) x = 0.5;

  // Bracket the root, then bisect; the CDF is monotone so this is robust.
  double lo = 0.0;
  double hi = x;
  while (chi_squared_cdf(hi, k) < p) {
    lo = hi;
    hi *= 2.0;
    SW_ASSERT(hi < 1e12);
  }
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (chi_squared_cdf(mid, k) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo < 1e-12 * (1.0 + hi)) break;
  }
  const double root = 0.5 * (lo + hi);
  if (memo.size() >= 4096) memo.clear();
  memo.emplace(key, root);
  return root;
}

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double normal_inverse_cdf(double p) {
  SW_EXPECTS(p > 0.0 && p < 1.0);
  // Acklam's algorithm.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;

  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }

  // One Halley refinement step using the exact CDF.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * 3.14159265358979323846) * std::exp(x * x / 2.0);
  x = x - u / (1.0 + x * u / 2.0);
  return x;
}

}  // namespace stopwatch::stats
