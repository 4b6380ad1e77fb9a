// Shared scenario builders for the experiment harnesses (see DESIGN.md §4).
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "core/cloud.hpp"
#include "experiment/points.hpp"
#include "experiment/scenario.hpp"
#include "hypervisor/guest_context.hpp"
#include "hypervisor/policy.hpp"
#include "leakage/estimators.hpp"
#include "leakage/observation_log.hpp"
#include "leakage/timing_tap.hpp"
#include "obs/timeseries.hpp"
#include "stats/detection.hpp"
#include "stats/ecdf.hpp"
#include "stats/summary.hpp"
#include "workload/file_service.hpp"
#include "workload/timing.hpp"

namespace stopwatch::bench {

/// Configuration of a Fig. 4-style timing-channel run: an attacker VM whose
/// deliveries are timed, optionally a file-serving victim VM with exactly
/// one replica coresident with one attacker replica, and Poisson background
/// broadcast traffic.
struct TimingScenarioConfig {
  /// Which mitigation backend runs the cloud. Replicated backends
  /// (StopWatch) get the 2r-1 machine overlap layout; unreplicated ones
  /// run attacker and victim coresident on one machine.
  hypervisor::PolicyKind policy{hypervisor::PolicyKind::kStopWatch};
  bool victim_present{true};
  int replica_count{3};
  double broadcast_rate_hz{80.0};
  Duration run_time{Duration::seconds(40)};
  std::uint64_t seed{1};
  /// Sec. IX collaborating attacker: extra host load injected on the first
  /// `marginalize_machines` attacker machines.
  double marginalize_load{0.0};
  int marginalize_machines{0};
  hypervisor::AggregationRule aggregation{
      hypervisor::AggregationRule::kMedian};
  /// For AggregationRule::kLeader: dictating machine (the victim-coresident
  /// machine is replica_count - 1 in this scenario's layout).
  std::uint32_t leader_machine{0};
  Duration delta_n{Duration::millis(10)};
  Duration delta_d{Duration::millis(30)};
  bool epoch_resync{false};
  std::uint64_t epoch_instr{200'000'000};
  double base_ips{1e9};
  double slope_min{0.90};
  double slope_max{1.10};
};

struct TimingScenarioResult {
  /// The attacker's measurement series (guest-clock inter-delivery, ms).
  std::vector<double> inter_arrival_ms;
  std::uint64_t divergences{0};
  std::uint64_t deliveries{0};
  /// Per packet delivered to attacker replica 0: the gap between its two
  /// largest proposals (leader_gap_ns) and the median margin, in ms.
  std::vector<double> proposal_spread_ms;
  std::vector<double> median_margin_ms;
  /// Per disk completion: its real-time slack in ms (victim replica 0 of a
  /// replicated run with a victim, attacker replica 0 otherwise).
  std::vector<double> disk_margin_ms;
  /// |virt - real| of attacker replica 0 at the end (seconds).
  double clock_drift_s{0.0};
  bool deterministic{true};
};

/// The gap between the two largest of one packet's proposals, i.e. between
/// the two fastest replicas' votes (0 with a single proposal): the gap Δn
/// must dominate, since the slowest replica may lag arbitrarily, the
/// median never comes from it, and the throttle only paces the leaders
/// (Sec. VII-A). fig2_protocol_trace's proposal_spread is max - min
/// instead; the two scenarios report different spreads under one name.
inline std::int64_t leader_gap_ns(
    const std::map<std::uint32_t, std::int64_t>& proposals) {
  std::int64_t top = INT64_MIN;
  std::int64_t second = INT64_MIN;
  for (const auto& [machine, v] : proposals) {
    if (v > top) {
      second = top;
      top = v;
    } else if (v > second) {
      second = v;
    }
  }
  return proposals.size() > 1 ? top - second : 0;
}

/// Records one replica's leader gaps, median margins and disk slacks, in
/// ms, for TimingScenarioResult.
struct MarginTap final : hypervisor::DeliveryTap {
  void on_delivery_chosen(
      std::uint64_t, const std::map<std::uint32_t, std::int64_t>& proposals,
      std::int64_t, std::int64_t margin_ns) override {
    proposal_spread_ms.push_back(
        static_cast<double>(leader_gap_ns(proposals)) / 1e6);
    median_margin_ms.push_back(static_cast<double>(margin_ns) / 1e6);
  }
  void on_disk_injected(Duration slack) override {
    disk_margin_ms.push_back(static_cast<double>(slack.ns) / 1e6);
  }
  std::vector<double> proposal_spread_ms;
  std::vector<double> median_margin_ms;
  std::vector<double> disk_margin_ms;
};

inline TimingScenarioResult run_timing_scenario(
    const TimingScenarioConfig& tc) {
  core::CloudConfig cfg;
  cfg.seed = tc.seed;
  cfg.policy = hypervisor::PolicyConfig{tc.policy};
  const bool replicated = hypervisor::policy_replicated(tc.policy);
  cfg.replica_count = tc.replica_count;
  // Host-load model for the timing experiments: a bursting coresident
  // victim visibly perturbs the Dom0 packet path and the vCPU scheduler
  // (paper Sec. V-B testbed).
  cfg.machine_template.vmm_load_delay = Duration::millis(3);
  cfg.machine_template.contention_alpha = 0.8;
  cfg.machine_template.preempt_wait = Duration::millis(12);
  cfg.machine_template.preempt_interval_instr = 5'000'000;
  cfg.machine_template.base_ips = tc.base_ips;
  // StopWatch knobs only go under kind = kStopWatch: customizing them on a
  // non-replicated backend is a ContractViolation by design.
  if (replicated) {
    auto& sw = cfg.policy.stopwatch;
    sw.delta_n = tc.delta_n;
    sw.delta_d = tc.delta_d;
    sw.aggregation = tc.aggregation;
    sw.leader_machine = tc.leader_machine;
    sw.epoch_resync = tc.epoch_resync;
    sw.epoch_instr = tc.epoch_instr;
    sw.slope_min = tc.slope_min;
    sw.slope_max = tc.slope_max;
  }
  cfg.policy.deterland.delta_n = tc.delta_n;
  cfg.policy.deterland.delta_d = tc.delta_d;

  std::vector<int> attacker_machines;
  std::vector<int> victim_machines;
  if (replicated) {
    const int r = tc.replica_count;
    cfg.machine_count = 2 * r - 1;
    for (int i = 0; i < r; ++i) attacker_machines.push_back(i);
    // The victim's replica set overlaps the attacker's in exactly one
    // machine (vertex-sharing is allowed; edge-disjointness holds).
    for (int i = r - 1; i < 2 * r - 1; ++i) victim_machines.push_back(i);
  } else {
    cfg.machine_count = 1;
    attacker_machines = {0};
    victim_machines = {0};
  }

  MarginTap attacker_tap;
  MarginTap victim_tap;
  core::Cloud cloud(cfg);
  const core::VmHandle attacker = cloud.add_vm(
      "attacker",
      [] { return std::make_unique<workload::AttackerProbeProgram>(); },
      attacker_machines);

  const NodeId sink = cloud.add_external_node([](const net::Packet&) {});
  core::VmHandle victim{};
  if (tc.victim_present) {
    workload::VictimServerProgram::Config vc;
    vc.sink = sink;
    vc.packets_per_unit = 3;
    vc.disk_probability = 0.12;
    vc.disk_bytes = 32 * 1024;
    victim = cloud.add_vm(
        "victim",
        [vc] { return std::make_unique<workload::VictimServerProgram>(vc); },
        victim_machines);
  }

  for (int m = 0; m < tc.marginalize_machines && m < cloud.machine_count();
       ++m) {
    cloud.machine(m).set_extra_load(tc.marginalize_load);
  }

  workload::BackgroundBroadcaster bcast(cloud, cloud.vm_addr(attacker),
                                        tc.broadcast_rate_hz, tc.seed ^ 0x55);
  cloud.start();
  const bool victim_disk = tc.victim_present && replicated;
  cloud.replica(attacker, 0).set_delivery_tap(&attacker_tap);
  if (victim_disk) cloud.replica(victim, 0).set_delivery_tap(&victim_tap);
  bcast.start();
  cloud.run_for(tc.run_time);
  cloud.halt_all();

  TimingScenarioResult result;
  auto& probe = static_cast<workload::AttackerProbeProgram&>(
      cloud.replica(attacker, 0).program());
  result.inter_arrival_ms = probe.inter_arrival_ms();
  result.divergences = cloud.total_divergences();
  const auto& s = cloud.replica(attacker, 0).stats();
  result.deliveries = s.net_deliveries;
  result.proposal_spread_ms = std::move(attacker_tap.proposal_spread_ms);
  result.median_margin_ms = std::move(attacker_tap.median_margin_ms);
  result.disk_margin_ms = std::move(victim_disk ? victim_tap.disk_margin_ms
                                                : attacker_tap.disk_margin_ms);
  result.clock_drift_s =
      std::abs(cloud.replica(attacker, 0).virt_now().to_seconds() -
               cloud.simulator().now().to_seconds());
  result.deterministic = cloud.replicas_deterministic(attacker);
  return result;
}

/// Runs each of `configs` through run_timing_scenario as one sweep of
/// independent points (experiment::for_each_point, under the scenario's
/// thread budget) and returns reduce(result) of each, in config order.
/// `reduce` keeps only what the caller reads, so a point's per-packet
/// vectors are freed with its cloud instead of piling up across the sweep.
template <typename Reduce>
auto run_timing_sweep(const experiment::ScenarioContext& ctx,
                      const std::vector<TimingScenarioConfig>& configs,
                      const Reduce& reduce) {
  std::vector<std::invoke_result_t<const Reduce&, TimingScenarioResult&&>>
      out(configs.size());
  experiment::for_each_point(ctx, configs.size(), [&](std::size_t i) {
    out[i] = reduce(run_timing_scenario(configs[i]));
  });
  return out;
}

/// One run of the secret-file-size egress channel.
struct FileChannelRun {
  /// TimingTap spans of each retrieval, labeled with its size class.
  leakage::ObservationLog log;
  double mean_latency_ms{0.0};
  /// Egress releases of the serving VM per simulated second.
  double releases_per_s{0.0};
};

/// The file-size leakage channel: a three-machine cloud under `policy`
/// serves `trials` rounds of UDP retrievals of {24, 72, 144} KiB, the
/// secret class, while a TimingTap records each retrieval's egress
/// release span (also into `series`, when given).
inline FileChannelRun run_file_channel(hypervisor::PolicyKind policy,
                                       std::uint64_t seed, int trials,
                                       int shards,
                                       obs::TimeSeries* series = nullptr) {
  core::CloudConfig cfg;
  cfg.sim_shards = shards;
  cfg.seed = seed;
  cfg.policy = policy;
  cfg.machine_count = 3;
  core::Cloud cloud(cfg);
  const core::VmHandle vm = cloud.add_vm(
      "fileserver",
      [] { return std::make_unique<workload::FileServerProgram>(); },
      {0, 1, 2});
  workload::FileDownloadClient client(
      cloud, cloud.vm_addr(vm), workload::FileDownloadClient::Protocol::kUdp);

  leakage::ObservationLog log(
      leakage::ObservationLogConfig{seed, /*reservoir_capacity=*/8192});
  leakage::TimingTap tap(cloud, vm, leakage::TimingTap::Mode::kTrialDuration,
                         log);
  tap.set_series(series);
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
  const double releases_per_s =
      elapsed_s > 0.0 ? static_cast<double>(tap.releases_seen()) / elapsed_s
                      : 0.0;
  return FileChannelRun{std::move(log), stats::summarize(latencies_ms).mean,
                        releases_per_s};
}

/// Miller-Madow mutual information between the log's secret classes and
/// its observations, binned `bins` ways by `mode`.
inline double estimate_mi(const leakage::ObservationLog& log,
                          leakage::BinningMode mode, int bins) {
  const std::vector<double> edges =
      leakage::make_bin_edges(log.pooled_samples(), mode, bins);
  return leakage::mutual_information_miller_madow(
      leakage::joint_from_log(log, edges));
}

/// The enum knob every detection-driven and leakage scenario exposes as
/// --param binning=...: "adaptive" (the default: equiprobable cells,
/// resolution concentrating where the mass is — the sub-millisecond burst
/// cluster, which is where host contention shows), "fixed" (equal-width
/// cells, the paper's layout), and "sturges" (equal-width with
/// ceil(log2 n) + 1 cells from the sample size). One declaration site so
/// the choice list cannot drift between scenarios.
inline experiment::ParamSpec binning_param() {
  return experiment::ParamSpec::enumeration(
      "binning", "observation cell layout", "adaptive",
      {"fixed", "adaptive", "sturges"});
}

/// The enum knob policy-sweepable scenarios expose as --param policy=...;
/// choices come from hypervisor::policy_choices() so the list cannot drift
/// from the backends that actually exist. The default is "stopwatch":
/// running without the param reproduces the golden outputs byte-for-byte.
inline experiment::ParamSpec policy_param() {
  return experiment::ParamSpec::enumeration(
      "policy", "mitigation policy backend", "stopwatch",
      hypervisor::policy_choices());
}

/// The knob every sharded cloud scenario exposes as --param sim_shards=...
inline experiment::ParamSpec sim_shards_param() {
  const experiment::ParamSpec spec(
      "sim_shards", "simulator cores (output is byte-identical across values)",
      1.0, 1.0);
  return spec.with_int_range(1, 64);
}

/// Observations needed to distinguish two measured series, per confidence.
/// `binning` is a binning_param() choice, dispatched through the leakage
/// subsystem's mapping (one source of truth for the knob): fixed ->
/// 40 equal-width cells, adaptive -> 40 equiprobable-under-null cells,
/// sturges -> ceil(log2 n) + 1 equal-width cells from the *null* sample
/// size (the detector's reference distribution).
inline stats::ChiSquaredDetector make_detector(
    const std::vector<double>& null_samples,
    const std::vector<double>& victim_samples,
    const std::string& binning = "adaptive") {
  const stats::Ecdf null_ecdf(null_samples);
  const stats::Ecdf victim_ecdf(victim_samples);
  switch (leakage::binning_mode_from_choice(binning)) {
    case leakage::BinningMode::kFixed:
      return stats::ChiSquaredDetector::from_samples(
          null_ecdf, victim_ecdf, 40, stats::Binning::kEqualWidth);
    case leakage::BinningMode::kSturges:
      return stats::ChiSquaredDetector::from_samples(
          null_ecdf, victim_ecdf,
          leakage::sturges_bin_count(null_ecdf.size()),
          stats::Binning::kEqualWidth);
    case leakage::BinningMode::kAdaptive:
      break;
  }
  return stats::ChiSquaredDetector::from_samples(null_ecdf, victim_ecdf, 40,
                                                 stats::Binning::kEquiprobable);
}

}  // namespace stopwatch::bench
