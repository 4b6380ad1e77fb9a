#include "leakage/capacity.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace stopwatch::leakage {

namespace {

constexpr double kLog2e = 1.4426950408889634;  // nats -> bits
/// Convergence target for the Csiszár upper-lower gap, in nats.
constexpr double kTolerance = 1e-9;
constexpr int kMaxIterations = 5000;

}  // namespace

double binary_entropy_bits(double p) {
  SW_EXPECTS(p >= 0.0 && p <= 1.0);
  if (p == 0.0 || p == 1.0) return 0.0;
  return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

CapacityResult blahut_arimoto(const std::vector<std::vector<double>>& channel) {
  const std::size_t inputs = channel.size();
  SW_EXPECTS_MSG(inputs >= 2, "capacity needs at least two input classes");
  const std::size_t outputs = channel.front().size();
  SW_EXPECTS(outputs >= 1);
  for (const auto& row : channel) {
    SW_EXPECTS_MSG(row.size() == outputs,
                   "channel rows must share one output alphabet");
    double mass = 0.0;
    for (const double w : row) {
      SW_EXPECTS(w >= 0.0);
      mass += w;
    }
    SW_EXPECTS_MSG(std::abs(mass - 1.0) < 1e-6,
                   "channel rows must be probability vectors");
  }

  CapacityResult result;
  result.optimal_input.assign(inputs, 1.0 / static_cast<double>(inputs));
  std::vector<double> output_marginal(outputs, 0.0);
  std::vector<double> row_exponent(inputs, 0.0);
  double last_lower_nats = 0.0;

  for (int iter = 1; iter <= kMaxIterations; ++iter) {
    result.iterations = iter;
    // q_T(t) = Σ_c p(c) W(t|c).
    std::fill(output_marginal.begin(), output_marginal.end(), 0.0);
    for (std::size_t c = 0; c < inputs; ++c) {
      for (std::size_t t = 0; t < outputs; ++t) {
        output_marginal[t] += result.optimal_input[c] * channel[c][t];
      }
    }
    // D_c = D(W(·|c) ‖ q_T) in nats; I(p) = Σ_c p(c) D_c; C ≤ max_c D_c.
    double lower_nats = 0.0;
    double upper_nats = -1.0;
    for (std::size_t c = 0; c < inputs; ++c) {
      double d = 0.0;
      for (std::size_t t = 0; t < outputs; ++t) {
        if (channel[c][t] > 0.0) {
          // W(t|c) > 0 with p(c) > 0 implies q_T(t) > 0; rows of
          // zero-mass inputs still divide safely below via the max guard.
          d += channel[c][t] *
               std::log(channel[c][t] /
                        std::max(output_marginal[t], 1e-300));
        }
      }
      row_exponent[c] = d;
      lower_nats += result.optimal_input[c] * d;
      upper_nats = std::max(upper_nats, d);
    }
    last_lower_nats = lower_nats;
    if (upper_nats - lower_nats <= kTolerance) {
      result.capacity_bits = std::max(0.0, lower_nats * kLog2e);
      result.converged = true;
      return result;
    }
    // p'(c) ∝ p(c) exp(D_c); subtract the max exponent for stability.
    double norm = 0.0;
    for (std::size_t c = 0; c < inputs; ++c) {
      result.optimal_input[c] *= std::exp(row_exponent[c] - upper_nats);
      norm += result.optimal_input[c];
    }
    SW_ASSERT(norm > 0.0);
    for (double& p : result.optimal_input) p /= norm;
  }
  // Ran out of iterations: report the last in-loop lower bound. I(p_t) is
  // non-decreasing over BA iterations, so it also lower-bounds what the
  // (one step newer) returned prior achieves — mixing stale D_c terms
  // with the updated prior would not.
  result.capacity_bits = std::max(0.0, last_lower_nats * kLog2e);
  result.converged = false;
  return result;
}

}  // namespace stopwatch::leakage
