// Scenario L1 — Channel capacity of the replicated-median timing channel.
//
// The access-driven channel of Figs. 1/4, measured in bits instead of
// "observations needed": the victim's secret input class c scales the load
// its coresident replica inflicts, so the replica shared with the attacker
// observes timings ~ Exp(lambda_c) while the attacker's other r - 1
// replicas observe the clean Exp(1). StopWatch discloses only the median
// of the r replica timings, so the attacker's per-observation channel is
//
//   C -> median( Exp(lambda_C), Exp(1), ..., Exp(1) )
//
// Monte-Carlo samples of that channel flow through an ObservationLog into
// the plug-in / Miller-Madow mutual-information estimators and the
// Blahut-Arimoto capacity solver, and are checked against the *analytic*
// channel: the exact median CDF from the Appendix order-statistics formula
// (order_statistic_cdf), binned over the same cells. Replication must make
// measured capacity fall (r = 1 -> 3 -> 5), matching the analytic value.
//
// The second axis reproduces the log-scaling claim: an attacker who
// aggregates n observations (averages them) before deciding gains bits
// only logarithmically — measured I_n tracks the Gaussian-approximation
// bound min(log2 |C|, 1/2 log2(1 + n * SNR)) and saturates at H(C).
#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "experiment/registry.hpp"
#include "leakage/capacity.hpp"
#include "leakage/estimators.hpp"
#include "leakage/observation_log.hpp"
#include "stats/order_statistics.hpp"

namespace stopwatch::bench {
namespace {

using experiment::ParamSpec;
using experiment::Result;
using experiment::ScenarioContext;
using leakage::ObservationLog;
using leakage::ObservationLogConfig;

/// Victim-coresident replica rate for secret class c: class 0 is an idle
/// victim (the clean Exp(1)); higher classes slow the shared host more.
double victim_lambda(int cls, double load_step) {
  return 1.0 / (1.0 + load_step * cls);
}

/// One attacker observation: the median of one victim-perturbed draw and
/// r - 1 clean draws (the only disclosed statistic, Sec. VI). Insertion
/// sort keeps the draw order (victim first) deterministic.
double sample_median_observation(Rng& rng, int replicas, double lambda_c) {
  SW_EXPECTS(replicas >= 1 && replicas <= 9);
  double draws[9] = {};
  draws[0] = rng.exponential(lambda_c);
  for (int i = 1; i < replicas; ++i) {
    const double v = rng.exponential(1.0);
    int j = i;
    while (j > 0 && draws[j - 1] > v) {
      draws[j] = draws[j - 1];
      --j;
    }
    draws[j] = v;
  }
  return draws[(replicas - 1) / 2];
}

/// Exact CDF of the median observation for class c (Appendix formula).
double analytic_median_cdf(double x, int replicas, double lambda_c) {
  if (x <= 0.0) return 0.0;
  std::vector<double> f(static_cast<std::size_t>(replicas),
                        1.0 - std::exp(-x));
  f[0] = 1.0 - std::exp(-lambda_c * x);
  return stats::order_statistic_cdf(f, (replicas + 1) / 2);
}

/// Bins an analytic CDF over `edges`, folding the tails into the outermost
/// cells so the row is a probability vector over the same alphabet the
/// empirical channel uses.
std::vector<double> analytic_channel_row(
    const std::vector<double>& edges,
    const std::function<double(double)>& cdf) {
  std::vector<double> row;
  row.reserve(edges.size() - 1);
  for (std::size_t j = 0; j + 1 < edges.size(); ++j) {
    row.push_back(std::max(0.0, cdf(edges[j + 1]) - cdf(edges[j])));
  }
  row.front() += cdf(edges.front());
  row.back() += std::max(0.0, 1.0 - cdf(edges.back()));
  double mass = 0.0;
  for (const double m : row) mass += m;
  for (double& m : row) m /= mass;
  return row;
}

/// E[X] and E[X^2] of a nonnegative variable from its CDF, by quadrature
/// of E[X^k] = integral k x^(k-1) (1 - F(x)) dx over [0, hi].
void analytic_moments(const std::function<double(double)>& cdf, double hi,
                      double& mean, double& variance) {
  const int steps = 4000;
  const double dx = hi / steps;
  double m1 = 0.0;
  double m2 = 0.0;
  for (int i = 0; i < steps; ++i) {
    const double x = (i + 0.5) * dx;
    const double tail = 1.0 - cdf(x);
    m1 += tail * dx;
    m2 += 2.0 * x * tail * dx;
  }
  mean = m1;
  variance = std::max(1e-12, m2 - m1 * m1);
}

Result run(const ScenarioContext& ctx) {
  const int trials = ctx.param_int("trials_per_class");
  const int classes = ctx.param_int("classes");
  const int bins = ctx.param_int("bins");
  const double load_step = ctx.param("load_step");
  const leakage::BinningMode mode =
      leakage::binning_mode_from_choice(ctx.param_choice("binning"));
  // Policy selection enters through capabilities only: a non-replicated
  // backend collapses every nominal replica count to 1 draw, and a
  // paced/batched backend quantizes each disclosed observation up to its
  // release quantum. One Exp(1) unit of the abstract channel corresponds
  // to 10 ms of real time (the Δn scale).
  const auto policy = hypervisor::make_policy(hypervisor::PolicyConfig{
      hypervisor::policy_kind_from_choice(ctx.param_choice("policy"))});
  const double quantum =
      static_cast<double>(policy->release_quantum().ns) / 1e7;
  const auto quantize = [quantum](double x) {
    return quantum > 0.0 ? quantum * std::ceil(x / quantum) : x;
  };
  // P(quantize(X) <= x) = F(floor(x/q)*q): the analytic channel sees the
  // same staircase the samples do.
  const auto cdf_arg = [quantum](double x) {
    return quantum > 0.0 ? quantum * std::floor(x / quantum) : x;
  };
  Rng rng(ctx.seed() ^ 0x1eaca9e5);

  Result result("leakage_capacity");
  std::vector<double> replica_axis;
  std::vector<double> measured_mi;
  std::vector<double> measured_capacity;
  std::vector<double> analytic_capacity;
  double prev_capacity = 0.0;
  bool decreasing = true;
  double max_rel_error = 0.0;

  for (const int nominal : {1, 3, 5}) {
    const int replicas = policy->effective_replicas(nominal);
    ObservationLog log(
        ObservationLogConfig{ctx.seed() ^ static_cast<std::uint64_t>(nominal),
                             /*reservoir_capacity=*/16384});
    for (int t = 0; t < trials; ++t) {
      for (int c = 0; c < classes; ++c) {
        log.record(c, quantize(sample_median_observation(
                          rng, replicas, victim_lambda(c, load_step))));
      }
    }
    const std::vector<double> edges =
        leakage::make_bin_edges(log.pooled_samples(), mode, bins);
    const leakage::JointDistribution joint =
        leakage::joint_from_log(log, edges);
    const double mi = leakage::mutual_information_miller_madow(joint);
    const leakage::CapacityResult measured =
        leakage::blahut_arimoto(leakage::channel_from_joint(joint));

    // Finite-sample noise floor: rebin the same pooled samples under
    // round-robin pseudo-labels (no true class signal) — the BA capacity
    // that survives is pure binning noise, subtracted below. A
    // deterministic permutation baseline.
    const std::vector<double> pooled = log.pooled_samples();
    ObservationLog null_log(ObservationLogConfig{
        ctx.seed() ^ (0xf100ULL + static_cast<std::uint64_t>(nominal)),
        /*reservoir_capacity=*/16384});
    for (std::size_t i = 0; i < pooled.size(); ++i) {
      null_log.record(static_cast<int>(i % static_cast<std::size_t>(classes)),
                      pooled[i]);
    }
    const double noise_floor =
        leakage::blahut_arimoto(leakage::channel_from_joint(
                                    leakage::joint_from_log(null_log, edges)))
            .capacity_bits;
    const double debiased =
        std::max(0.0, measured.capacity_bits - noise_floor);

    std::vector<std::vector<double>> analytic;
    for (int c = 0; c < classes; ++c) {
      const double lambda_c = victim_lambda(c, load_step);
      analytic.push_back(analytic_channel_row(edges, [&](double x) {
        return analytic_median_cdf(cdf_arg(x), replicas, lambda_c);
      }));
    }
    const leakage::CapacityResult bound = leakage::blahut_arimoto(analytic);

    const std::string suffix = "_r" + std::to_string(nominal);
    result.add_metric("mi_bits" + suffix, mi, "bits");
    result.add_metric("capacity_bits" + suffix, measured.capacity_bits,
                      "bits");
    result.add_metric("capacity_noise_floor" + suffix, noise_floor, "bits");
    result.add_metric("capacity_debiased" + suffix, debiased, "bits");
    result.add_metric("analytic_capacity_bits" + suffix, bound.capacity_bits,
                      "bits");
    // Error of the debiased estimate, relative with a small absolute
    // floor: tiny channels (r = 5) are noise-dominated in relative terms.
    const double error =
        std::abs(debiased - bound.capacity_bits) /
        std::max(0.02, bound.capacity_bits);
    result.add_metric("capacity_rel_error" + suffix, error, "frac");
    max_rel_error = std::max(max_rel_error, error);
    if (nominal > 1 && measured.capacity_bits >= prev_capacity) {
      decreasing = false;
    }
    prev_capacity = measured.capacity_bits;
    replica_axis.push_back(nominal);
    measured_mi.push_back(mi);
    measured_capacity.push_back(measured.capacity_bits);
    analytic_capacity.push_back(bound.capacity_bits);
  }
  result.add_series("replica_count", "replicas", replica_axis);
  result.add_series("measured_mi", "bits", measured_mi);
  result.add_series("measured_capacity", "bits", measured_capacity);
  result.add_series("analytic_capacity", "bits", analytic_capacity);
  result.add_metric("capacity_decreases_with_replicas", decreasing ? 1.0 : 0.0,
                    "bool");
  result.add_metric("max_capacity_rel_error", max_rel_error, "frac");

  // --- Log-scaling axis: bits vs observations aggregated (r = 3). ---
  const int obs_levels = ctx.param_int("obs_levels");
  const int obs_trials = ctx.param_int("obs_trials_per_class");
  const int max_obs = 1 << (obs_levels - 1);
  const int replicas = policy->effective_replicas(3);

  // Analytic Gaussian-approximation SNR of the averaged statistic: the
  // between-class variance of the median's mean over the within-class
  // variance (shrinking as 1/n under averaging).
  std::vector<double> class_mean(static_cast<std::size_t>(classes));
  double within = 0.0;
  for (int c = 0; c < classes; ++c) {
    const double lambda_c = victim_lambda(c, load_step);
    double mean = 0.0;
    double variance = 0.0;
    analytic_moments(
        [&](double x) {
          return analytic_median_cdf(cdf_arg(x), replicas, lambda_c);
        },
        /*hi=*/12.0 / lambda_c, mean, variance);
    class_mean[static_cast<std::size_t>(c)] = mean;
    within += variance / classes;
  }
  double mean_of_means = 0.0;
  for (const double m : class_mean) mean_of_means += m / classes;
  double between = 0.0;
  for (const double m : class_mean) {
    between += (m - mean_of_means) * (m - mean_of_means) / classes;
  }
  const double snr = between / within;

  // Each trial draws max_obs observations; every level n reads the prefix
  // mean of the first n — so levels share trials and stay comparable.
  std::vector<std::vector<std::vector<double>>> prefix_means(
      static_cast<std::size_t>(obs_levels));
  for (auto& level : prefix_means) {
    level.assign(static_cast<std::size_t>(classes), {});
  }
  for (int t = 0; t < obs_trials; ++t) {
    for (int c = 0; c < classes; ++c) {
      const double lambda_c = victim_lambda(c, load_step);
      double sum = 0.0;
      int level = 0;
      for (int n = 1; n <= max_obs; ++n) {
        sum += quantize(sample_median_observation(rng, replicas, lambda_c));
        if (n == (1 << level)) {
          prefix_means[static_cast<std::size_t>(level)]
                      [static_cast<std::size_t>(c)]
                          .push_back(sum / n);
          ++level;
        }
      }
    }
  }
  std::vector<double> obs_axis;
  std::vector<double> mi_vs_obs;
  std::vector<double> bound_vs_obs;
  const double h_secret = std::log2(static_cast<double>(classes));
  bool nondecreasing = true;
  double max_excess_over_bound = 0.0;
  for (int level = 0; level < obs_levels; ++level) {
    const int n = 1 << level;
    ObservationLog log(ObservationLogConfig{
        ctx.seed() ^ (0xc0ffeeULL + static_cast<std::uint64_t>(level)),
        /*reservoir_capacity=*/16384});
    for (int c = 0; c < classes; ++c) {
      for (const double v :
           prefix_means[static_cast<std::size_t>(level)]
                       [static_cast<std::size_t>(c)]) {
        log.record(c, v);
      }
    }
    const std::vector<double> edges =
        leakage::make_bin_edges(log.pooled_samples(), mode, bins);
    const double mi = leakage::mutual_information_miller_madow(
        leakage::joint_from_log(log, edges));
    const double bound =
        std::min(h_secret, 0.5 * std::log2(1.0 + n * snr));
    if (level > 0 && mi + 0.05 < mi_vs_obs.back()) nondecreasing = false;
    max_excess_over_bound = std::max(max_excess_over_bound, mi - bound);
    obs_axis.push_back(n);
    mi_vs_obs.push_back(mi);
    bound_vs_obs.push_back(bound);
  }
  result.add_series("observations_aggregated", "observations", obs_axis);
  result.add_series("mi_vs_observations", "bits", mi_vs_obs);
  result.add_series("gaussian_bound_vs_observations", "bits", bound_vs_obs);
  result.add_metric("mi_at_1_obs", mi_vs_obs.front(), "bits");
  result.add_metric("mi_at_max_obs", mi_vs_obs.back(), "bits");
  result.add_metric("secret_entropy", h_secret, "bits");
  result.add_metric("aggregation_snr", snr, "frac");
  result.add_metric("mi_vs_obs_nondecreasing", nondecreasing ? 1.0 : 0.0,
                    "bool");
  // Log-scaling: the measured curve must track (stay at or below, modulo
  // estimator bias) the bound's 1/2 log2(1 + n SNR) growth — the
  // "exponentially many observations per extra bit" shape.
  result.add_metric("max_excess_over_bound", max_excess_over_bound, "bits");

  result.set_note(
      "Paper shape check: replication shrinks the median channel (capacity "
      "falls 1 -> 3 -> 5 replicas, matching the analytic order-statistics "
      "channel), and aggregating n observations buys bits only "
      "logarithmically — measured I_n tracks the Gaussian-approximation "
      "bound min(H(C), 1/2 log2(1 + n SNR)).");
  return result;
}

[[maybe_unused]] const experiment::ScenarioRegistrar kRegistrar{{
    .name = "leakage_capacity",
    .description =
        "Leakage: measured vs analytic capacity of the replicated-median "
        "timing channel (replicas 1/3/5), and bits vs observations "
        "aggregated (log-scaling)",
    .params =
        {ParamSpec{"trials_per_class", "Monte-Carlo observations per secret "
                                       "class and replica count",
                   6000.0, 2000.0}
             .with_int_range(100, 100000),
         ParamSpec{"classes", "number of victim secret input classes", 4.0}
             .with_int_range(2, 8),
         ParamSpec{"bins", "observation cells for the estimators", 16.0}
             .with_int_range(4, 128),
         ParamSpec{"load_step", "per-class victim load increment", 1.0}
             .with_range(0.01, 10),
         ParamSpec{"obs_levels", "aggregation ladder size (n = 1..2^(L-1))",
                   6.0, 5.0}
             .with_int_range(2, 10),
         ParamSpec{"obs_trials_per_class",
                   "trials per class for the aggregation ladder", 1200.0,
                   500.0}
             .with_int_range(100, 100000),
         binning_param(), policy_param()},
    .run = run,
}};

}  // namespace
}  // namespace stopwatch::bench
