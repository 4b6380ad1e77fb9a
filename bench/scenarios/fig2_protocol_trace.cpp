// Scenario E2 — Paper Figs. 2 & 3: the packet-delivery protocol in action.
// Replays a replicated guest receiving broadcast traffic and checks the
// protocol invariants across replicas: every replica adopts the same median
// proposal, and injection happens at a virtual time at or past the median.
#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "core/cloud.hpp"
#include "experiment/registry.hpp"
#include "workload/timing.hpp"

namespace stopwatch::bench {
namespace {

using experiment::ParamSpec;
using experiment::Result;
using experiment::ScenarioContext;

Result run(const ScenarioContext& ctx) {
  core::CloudConfig cfg;
  cfg.seed = ctx.seed() ^ 11;
  cfg.machine_count = 3;
  cfg.record_packet_traces = true;
  core::Cloud cloud(cfg);

  const core::VmHandle vm = cloud.add_vm(
      "guest",
      [] { return std::make_unique<workload::AttackerProbeProgram>(); },
      {0, 1, 2});
  workload::BackgroundBroadcaster bcast(
      cloud, cloud.vm_addr(vm), ctx.param("broadcast_rate_hz"), 3);
  cloud.start();
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
  for (int r = 0; r < 3; ++r) {
    for (const auto& tr : cloud.replica(vm, r).stats().packet_traces) {
      ++traces;
      adopted_by_seq[tr.copy_seq].push_back(tr.chosen_delivery_virt_ms);
      if (tr.inject_virt_ms < tr.chosen_delivery_virt_ms) {
        ++inject_before_median;
      }
      double lo = 1e300;
      double hi = -1e300;
      for (const auto& [machine, virt_ms] : tr.proposals_ms) {
        lo = std::min(lo, virt_ms);
        hi = std::max(hi, virt_ms);
      }
      if (!tr.proposals_ms.empty()) proposal_spread_ms.push_back(hi - lo);
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
    .deterministic = true,
    .run = run,
}};

}  // namespace
}  // namespace stopwatch::bench
