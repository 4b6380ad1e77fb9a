// Channel capacity of a discrete memoryless channel via Blahut–Arimoto.
//
// Mutual information measures the leakage under the victim's *actual* input
// distribution; capacity is the supremum over priors — what an adaptive
// attacker who controls (or knows) the secret distribution could extract
// per observation. StopWatch's quantitative claim is a capacity claim: the
// replicated median bounds the *capacity* of the access-driven channel, not
// just the leakage of one workload.
//
// The solver is the classic alternating maximization: given input prior p,
//   q(c|t) ∝ p(c) W(t|c)            (posterior under the current prior)
//   p'(c) ∝ exp( Σ_t W(t|c) ln q(c|t) )
// with the Csiszár bounds max_c D(W(·|c) ‖ q_T) and I(p) sandwiching C, so
// convergence is certified, not assumed.
#pragma once

#include <vector>

namespace stopwatch::leakage {

struct CapacityResult {
  /// Channel capacity in bits per observation.
  double capacity_bits{0.0};
  /// The capacity-achieving input prior over secret classes.
  std::vector<double> optimal_input;
  int iterations{0};
  /// Csiszár upper-lower gap fell below tolerance within max_iterations.
  bool converged{false};
};

/// Capacity of the channel with conditional rows `channel[c][t] = W(t|c)`.
/// Every row must be a probability vector; at least 2 rows and 1 column.
[[nodiscard]] CapacityResult blahut_arimoto(
    const std::vector<std::vector<double>>& channel, double tolerance = 1e-9,
    int max_iterations = 5000);

/// Binary entropy H2(p) in bits — the closed form behind the binary
/// symmetric channel's capacity 1 - H2(p). No scenario calls it: it is the
/// tests' closed-form oracle for blahut_arimoto.
[[nodiscard]] double binary_entropy_bits(double p);

}  // namespace stopwatch::leakage
