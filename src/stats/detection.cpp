#include "stats/detection.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contracts.hpp"
#include "stats/special_functions.hpp"

namespace stopwatch::stats {

namespace {

/// Probability mass of `cdf` in each cell delimited by `edges`.
std::vector<double> cell_masses(const std::function<double(double)>& cdf,
                                const std::vector<double>& edges) {
  std::vector<double> masses;
  masses.reserve(edges.size() - 1);
  for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
    masses.push_back(std::max(0.0, cdf(edges[i + 1]) - cdf(edges[i])));
  }
  return masses;
}

std::vector<double> make_edges(const std::function<double(double)>& null_cdf,
                               double lo, double hi, int bins,
                               Binning binning) {
  std::vector<double> edges;
  edges.reserve(static_cast<std::size_t>(bins) + 1);
  edges.push_back(lo);
  for (int i = 1; i < bins; ++i) {
    if (binning == Binning::kEqualWidth) {
      edges.push_back(lo + (hi - lo) * i / bins);
    } else {
      edges.push_back(invert_cdf(null_cdf, static_cast<double>(i) / bins, lo, hi));
    }
  }
  edges.push_back(hi);
  return edges;
}

}  // namespace

ChiSquaredDetector::ChiSquaredDetector(std::function<double(double)> null_cdf,
                                       std::function<double(double)> alt_cdf,
                                       double support_lo, double support_hi,
                                       int bins, Binning binning) {
  SW_EXPECTS(bins >= 2);
  SW_EXPECTS(support_lo < support_hi);
  bins_ = bins;
  const auto edges = make_edges(null_cdf, support_lo, support_hi, bins, binning);
  // Analytic CDFs: use a tiny floor that only guards true zero-mass cells.
  compute_noncentrality(cell_masses(null_cdf, edges),
                        cell_masses(alt_cdf, edges),
                        /*null_mass_floor=*/1e-9);
}

ChiSquaredDetector::ChiSquaredDetector(std::vector<double> null_probs,
                                       std::vector<double> alt_probs,
                                       double null_mass_floor) {
  bins_ = static_cast<int>(null_probs.size());
  compute_noncentrality(null_probs, alt_probs, null_mass_floor);
}

ChiSquaredDetector ChiSquaredDetector::from_samples(const Ecdf& null_samples,
                                                    const Ecdf& alt_samples,
                                                    int bins, Binning binning) {
  SW_EXPECTS(bins >= 2);
  const double lo = std::min(null_samples.min(), alt_samples.min());
  const double hi = std::max(null_samples.max(), alt_samples.max());
  const double pad = (hi - lo) * 1e-9 + 1e-12;

  auto null_cdf = [&null_samples](double x) { return null_samples.cdf(x); };
  const auto edges =
      make_edges(null_cdf, lo - pad, hi + pad, bins, binning);

  auto mass = [](const Ecdf& e, const std::vector<double>& eg) {
    std::vector<double> m;
    for (std::size_t i = 0; i + 1 < eg.size(); ++i)
      m.push_back(std::max(0.0, e.cdf(eg[i + 1]) - e.cdf(eg[i])));
    return m;
  };
  // Finite-sample floor: a cell the null sample never hit still gets mass
  // equivalent to half an observation.
  const double floor_p = 0.5 / static_cast<double>(null_samples.size());
  return ChiSquaredDetector(mass(null_samples, edges), mass(alt_samples, edges),
                            floor_p);
}

void ChiSquaredDetector::compute_noncentrality(
    const std::vector<double>& null_probs,
    const std::vector<double>& alt_probs, double null_mass_floor) {
  SW_EXPECTS(null_probs.size() == alt_probs.size());
  double lambda = 0.0;
  for (std::size_t i = 0; i < null_probs.size(); ++i) {
    const double p = std::max(null_probs[i], null_mass_floor);
    const double d = alt_probs[i] - null_probs[i];
    lambda += d * d / p;
  }
  noncentrality_ = lambda;
}

long ChiSquaredDetector::observations_needed(double confidence) const {
  SW_EXPECTS(confidence > 0.0 && confidence < 1.0);
  const double dof = bins_ - 1;
  const double crit = chi_squared_inverse_cdf(confidence, dof);
  if (noncentrality_ <= 0.0) return std::numeric_limits<long>::max();
  // Expected statistic after N draws from the alternative ~ (k-1) + N λ1.
  const double n = (crit - dof) / noncentrality_;
  if (n <= 1.0) return 1;
  // Near-degenerate channels (heavily quantized policies) can push λ1 to
  // denormal territory where ceil(n) no longer fits in long.
  if (n >= 9.2e18) return std::numeric_limits<long>::max();
  return static_cast<long>(std::ceil(n));
}

std::vector<double> paper_confidence_grid() {
  return {0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 0.99};
}

}  // namespace stopwatch::stats
