// Scenario P1 — policy_matrix: the four mitigation backends, one table.
//
// Every policy the hypervisor layer can run (baseline Xen, StopWatch,
// Deterland-style virtual-time batching, TIFC-style paced egress) is swept
// through the same two channels and the same cost probes:
//
//   * detection — the Fig. 4 access-driven channel: observations an
//     attacker timing inbound deliveries needs to detect a coresident
//     file-serving victim at 0.99 confidence (chi-squared detector);
//   * leakage   — the egress-timing channel: Miller-Madow mutual
//     information (bits per trial epoch) between a client's secret file
//     size class and the attacker-visible egress release spans, via the
//     PR-4 TimingTap estimators;
//   * cost      — mean file-download latency, its overhead relative to
//     baseline Xen, and the egress release rate.
//
// Replication helps the detection channel (StopWatch's median hides the
// coresident replica); batching and pacing quantize the egress channel
// instead. The matrix makes that trade visible in one deterministic JSON
// table — rerunning with --jobs 8 is byte-identical to --jobs 1.
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/cloud.hpp"
#include "experiment/registry.hpp"

namespace stopwatch::bench {
namespace {

using experiment::ParamSpec;
using experiment::Result;
using experiment::ScenarioContext;

Result run(const ScenarioContext& ctx) {
  const int trials = ctx.param_int("trials_per_class");
  const double run_time_s = ctx.param("run_time_s");
  const int bins = ctx.param_int("bins");
  const leakage::BinningMode mode =
      leakage::binning_mode_from_choice(ctx.param_choice("binning"));
  const std::string& binning = ctx.param_choice("binning");

  Result result("policy_matrix");
  double baseline_latency_ms = 0.0;
  std::uint64_t index = 0;
  for (const std::string& choice : hypervisor::policy_choices()) {
    const hypervisor::PolicyKind kind =
        hypervisor::policy_kind_from_choice(choice);
    const std::uint64_t seed = ctx.seed() ^ ((index + 1) * 0x9e3779b97f4aULL);
    ++index;

    // Detection arm: inbound delivery timing, victim present vs absent.
    TimingScenarioConfig tc;
    tc.policy = kind;
    tc.run_time = Duration::from_seconds_f(run_time_s);
    tc.seed = seed;
    tc.victim_present = true;
    const auto victim = run_timing_scenario(tc);
    tc.victim_present = false;
    const auto clean = run_timing_scenario(tc);
    const auto detector =
        make_detector(clean.inter_arrival_ms, victim.inter_arrival_ms,
                      binning);
    const long obs99 = detector.observations_needed(0.99);

    // Leakage + cost arm: the secret-file-size egress channel.
    const FileChannelRun file =
        run_file_channel(kind, seed ^ 0xF11E, trials, /*shards=*/1);
    if (kind == hypervisor::PolicyKind::kBaselineXen) {
      baseline_latency_ms = file.mean_latency_ms;
    }
    const double overhead =
        baseline_latency_ms > 0.0
            ? (file.mean_latency_ms - baseline_latency_ms) /
                  baseline_latency_ms
            : 0.0;

    result.add_metric("obs99_" + choice, static_cast<double>(obs99),
                      "observations");
    result.add_metric("bits_per_epoch_" + choice,
                      estimate_mi(file.log, mode, bins), "bits");
    result.add_metric("latency_ms_" + choice, file.mean_latency_ms, "ms");
    result.add_metric("latency_overhead_" + choice, overhead, "frac");
    result.add_metric("egress_releases_per_s_" + choice, file.releases_per_s,
                      "1/s");
  }
  result.set_note(
      "Detection (obs99: higher = safer), egress leakage (bits per trial "
      "epoch: lower = safer), and latency cost per mitigation policy. "
      "Replication hardens the inbound channel; batching/pacing quantize "
      "the egress channel.");
  return result;
}

[[maybe_unused]] const experiment::ScenarioRegistrar kRegistrar{{
    .name = "policy_matrix",
    .description =
        "Mitigation-policy sweep: detection (obs99), egress leakage "
        "(bits/epoch), and latency overhead for baseline / stopwatch / "
        "deterland / tifc in one deterministic table",
    .params =
        {ParamSpec{"trials_per_class",
                   "file retrievals per size class and policy", 16.0, 5.0}
             .with_int_range(2, 1000),
         ParamSpec{"run_time_s",
                   "simulated seconds per detection-channel run", 20.0, 4.0}
             .with_range(0.01, 3600),
         ParamSpec{"bins", "observation cells for the MI estimator", 12.0}
             .with_int_range(4, 128),
         binning_param()},
    .run = run,
}};

}  // namespace
}  // namespace stopwatch::bench
