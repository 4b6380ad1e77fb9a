// The paper's detection methodology: how many observations does an attacker
// need before a chi-squared test rejects, at a given confidence, the null
// hypothesis "I am not coresident with the victim"? (Figs. 1(b), 1(c), 4(b),
// and the calibration behind Fig. 8.)
//
// Methodology: partition the observation space into k cells. If the
// attacker's observations actually come from the alternative distribution,
// the expected chi-squared statistic after N observations is approximately
// (k - 1) + N * λ1, where
//
//   λ1 = Σ_i (p'_i - p_i)² / p_i
//
// is the per-observation noncentrality. The attacker detects at confidence c
// once the expected statistic exceeds the chi-squared critical value
// χ²_{k-1}(c), giving N(c) = max(1, ⌈(χ²_{k-1}(c) - (k-1)) / λ1⌉).
//
// Binning matters. Equal-width cells over the support (the default) are
// tail-sensitive: a victim that inflates the tail is detectable in a handful
// of observations without StopWatch — matching the paper's "a single
// observation" claim — while the median-of-three damps tail differences
// quadratically (the (F2 + F3 - 2 F2 F3) factor of Theorem 3 vanishes in
// both tails), which is precisely why StopWatch buys ~2 orders of magnitude.
// Equiprobable-under-null cells are also provided for sensitivity analysis.
#pragma once

#include <functional>
#include <vector>

#include "stats/distribution.hpp"
#include "stats/ecdf.hpp"

namespace stopwatch::stats {

/// Cell layout for the chi-squared test.
enum class Binning {
  kEqualWidth,    ///< k equal-width cells over [lo, hi] (paper mode).
  kEquiprobable,  ///< k cells with equal null mass.
};

/// Analyses distinguishability of two distributions with a chi-squared test.
class ChiSquaredDetector {
 public:
  ChiSquaredDetector(std::function<double(double)> null_cdf,
                     std::function<double(double)> alt_cdf, double support_lo,
                     double support_hi, int bins = 60,
                     Binning binning = Binning::kEqualWidth);

  /// Convenience: analyse two sample sets (the Fig. 4 path). Cells are laid
  /// out over the combined sample range; the null cell mass is floored at
  /// 0.5 / |null sample| to keep finite-sample noise from exploding λ1.
  static ChiSquaredDetector from_samples(const Ecdf& null_samples,
                                         const Ecdf& alt_samples,
                                         int bins = 40,
                                         Binning binning = Binning::kEqualWidth);

  [[nodiscard]] double noncentrality() const { return noncentrality_; }

  /// Observations needed at one confidence level.
  [[nodiscard]] long observations_needed(double confidence) const;

  [[nodiscard]] int bins() const { return bins_; }

 private:
  ChiSquaredDetector(std::vector<double> null_probs,
                     std::vector<double> alt_probs, double null_mass_floor);

  void compute_noncentrality(const std::vector<double>& null_probs,
                             const std::vector<double>& alt_probs,
                             double null_mass_floor);

  int bins_{0};
  double noncentrality_{0.0};
};

/// The confidence grid used throughout the paper's figures.
[[nodiscard]] std::vector<double> paper_confidence_grid();

}  // namespace stopwatch::stats
