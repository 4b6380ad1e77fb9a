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
#include "leakage/estimators.hpp"
#include "leakage/observation_log.hpp"
#include "leakage/timing_tap.hpp"
#include "workload/file_service.hpp"

namespace stopwatch::bench {
namespace {

using experiment::ParamSpec;
using experiment::Result;
using experiment::ScenarioContext;
using leakage::ObservationLog;
using leakage::ObservationLogConfig;
using leakage::TimingTap;

struct FileChannelRun {
  double mi_bits{0.0};
  double mean_latency_ms{0.0};
  double releases_per_s{0.0};
};

/// Secret-file-size download channel under `kind`: three size classes,
/// TimingTap span observations, plus the client-visible latency and the
/// egress release rate of the serving VM.
FileChannelRun run_file_channel(hypervisor::PolicyKind kind,
                                std::uint64_t seed, int trials, int bins,
                                leakage::BinningMode mode) {
  core::CloudConfig cfg;
  cfg.seed = seed;
  cfg.policy = hypervisor::PolicyConfig{kind};
  cfg.machine_count = 3;
  core::Cloud cloud(cfg);
  const core::VmHandle vm = cloud.add_vm(
      "fileserver",
      [] { return std::make_unique<workload::FileServerProgram>(); },
      {0, 1, 2});
  workload::FileDownloadClient client(
      cloud, cloud.vm_addr(vm), workload::FileDownloadClient::Protocol::kUdp);

  ObservationLog log(ObservationLogConfig{seed, /*reservoir_capacity=*/8192});
  TimingTap tap(cloud, vm, TimingTap::Mode::kTrialDuration, log);
  cloud.start();

  std::vector<double> latencies_ms;
  const std::uint32_t sizes[] = {24 << 10, 72 << 10, 144 << 10};
  for (int t = 0; t < trials; ++t) {
    for (int c = 0; c < 3; ++c) {
      tap.begin_trial(c);
      bool done = false;
      client.download(sizes[c], [&](Duration d) {
        done = true;
        latencies_ms.push_back(d.to_seconds() * 1e3);
      });
      while (!done) cloud.run_for(Duration::millis(50));
      tap.end_trial();
    }
  }
  const double elapsed_s = cloud.simulator().now().to_seconds();
  cloud.halt_all();

  FileChannelRun run;
  const std::vector<double> edges =
      leakage::make_bin_edges(log.pooled_samples(), mode, bins);
  run.mi_bits = leakage::mutual_information_miller_madow(
      leakage::joint_from_log(log, edges));
  run.mean_latency_ms = stats::summarize(latencies_ms).mean;
  run.releases_per_s =
      elapsed_s > 0.0 ? static_cast<double>(tap.releases_seen()) / elapsed_s
                      : 0.0;
  return run;
}

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
        run_file_channel(kind, seed ^ 0xF11E, trials, bins, mode);
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
    result.add_metric("bits_per_epoch_" + choice, file.mi_bits, "bits");
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
    .deterministic = true,
    .run = run,
}};

}  // namespace
}  // namespace stopwatch::bench
