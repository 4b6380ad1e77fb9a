// Scenario E2 — Paper Figs. 2 & 3: the packet-delivery protocol in action.
// Replays a replicated guest receiving broadcast traffic and checks the
// protocol invariants across replicas: every replica adopts the same median
// proposal, and injection happens at a virtual time at or past the median.
#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/cloud.hpp"
#include "experiment/registry.hpp"
#include "hypervisor/guest_context.hpp"
#include "workload/timing.hpp"

namespace stopwatch::bench {
namespace {

using experiment::ParamSpec;
using experiment::Result;
using experiment::ScenarioContext;

/// One inbound packet's timeline on one replica (Figs. 2/3), in ms.
struct PacketRecord {
  /// Latest minus earliest proposed delivery, virtual time.
  double proposal_spread_ms{0.0};
  double chosen_delivery_virt_ms{0.0};
  double inject_virt_ms{0.0};
  bool injected{false};
};

/// Records one replica's first kTracedPackets inbound packets. A tap sees
/// one replica, on that replica's core.
struct ProtocolTraceTap final : hypervisor::DeliveryTap {
  static constexpr std::uint64_t kTracedPackets = 32;

  void on_delivery_chosen(
      std::uint64_t copy_seq,
      const std::map<std::uint32_t, std::int64_t>& proposals,
      std::int64_t delivery_ns, std::int64_t) override {
    if (copy_seq > kTracedPackets) return;
    const auto [lo, hi] = std::minmax_element(
        proposals.begin(), proposals.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    PacketRecord& rec = by_seq[copy_seq];
    rec.proposal_spread_ms = static_cast<double>(hi->second) / 1e6 -
                             static_cast<double>(lo->second) / 1e6;
    rec.chosen_delivery_virt_ms = static_cast<double>(delivery_ns) / 1e6;
  }
  void on_net_injected(std::uint64_t copy_seq, std::int64_t clock_ns,
                       RealTime) override {
    if (copy_seq > kTracedPackets) return;
    PacketRecord& rec = by_seq[copy_seq];
    rec.inject_virt_ms = static_cast<double>(clock_ns) / 1e6;
    rec.injected = true;
  }
  /// By copy_seq, which is also injection order.
  std::map<std::uint64_t, PacketRecord> by_seq;
};

Result run(const ScenarioContext& ctx) {
  core::CloudConfig cfg;
  cfg.seed = ctx.seed() ^ 11;
  cfg.machine_count = 3;
  std::array<ProtocolTraceTap, 3> taps;
  core::Cloud cloud(cfg);

  const core::VmHandle vm = cloud.add_vm(
      "guest",
      [] { return std::make_unique<workload::AttackerProbeProgram>(); },
      {0, 1, 2});
  workload::BackgroundBroadcaster bcast(
      cloud, cloud.vm_addr(vm), ctx.param("broadcast_rate_hz"), 3);
  cloud.start();
  for (int r = 0; r < 3; ++r) {
    cloud.replica(vm, r).set_delivery_tap(&taps[static_cast<std::size_t>(r)]);
  }
  bcast.start();
  cloud.run_for(Duration::from_seconds_f(ctx.param("run_time_s")));
  cloud.halt_all();

  // Per packet copy_seq: the adopted median and injection point seen by each
  // replica. Agreement means every replica delivers every packet at one
  // common virtual time.
  std::map<std::uint64_t, std::vector<double>> adopted_by_seq;
  std::uint64_t traces = 0;
  std::uint64_t inject_before_median = 0;
  std::vector<double> proposal_spread_ms;
  for (const ProtocolTraceTap& tap : taps) {
    for (const auto& [seq, rec] : tap.by_seq) {
      if (!rec.injected) continue;
      ++traces;
      adopted_by_seq[seq].push_back(rec.chosen_delivery_virt_ms);
      if (rec.inject_virt_ms < rec.chosen_delivery_virt_ms) {
        ++inject_before_median;
      }
      proposal_spread_ms.push_back(rec.proposal_spread_ms);
    }
  }
  std::uint64_t median_disagreements = 0;
  for (const auto& [seq, medians] : adopted_by_seq) {
    for (const double m : medians) {
      if (m != medians.front()) ++median_disagreements;
    }
  }

  Result result("fig2_protocol_trace");
  result.add_metric("packet_traces", static_cast<double>(traces), "packets");
  result.add_metric("median_disagreements",
                    static_cast<double>(median_disagreements), "packets");
  result.add_metric("injections_before_median",
                    static_cast<double>(inject_before_median), "packets");
  result.add_summary_metrics("proposal_spread", "ms", proposal_spread_ms);
  result.add_metric("divergences",
                    static_cast<double>(cloud.total_divergences()), "events");
  result.add_metric("replicas_deterministic",
                    cloud.replicas_deterministic(vm) ? 1.0 : 0.0, "bool");
  result.set_note(
      "Invariant check (Sec. V): all replicas adopt the same median and "
      "inject at the first guest-caused VM exit past it, so "
      "median_disagreements and injections_before_median must be 0.");
  return result;
}

[[maybe_unused]] const experiment::ScenarioRegistrar kRegistrar{{
    .name = "fig2_protocol_trace",
    .description =
        "Figs. 2/3: packet-delivery protocol trace; checks median agreement "
        "and injection-past-median across replicas",
    .params = {ParamSpec{"run_time_s", "simulated seconds", 2.0, 0.5}
                   .with_range(0.01, 3600),
               ParamSpec{"broadcast_rate_hz", "background broadcast rate",
                         6.0}.with_range(0.1, 10000)},
    .run = run,
}};

}  // namespace
}  // namespace stopwatch::bench
