// Scenario E10 — Paper Sec. IX: collaborating attacker VMs.
//
// A second attacker VM induces load on machines hosting replicas of the
// first attacker VM, slowing them until they are marginalized from the
// median — the surviving proposals then reflect the victim-coresident
// replica. The paper's countermeasure: more replicas (3 -> 5) force the
// attacker to marginalize several machines at once.
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "experiment/registry.hpp"

namespace stopwatch::bench {
namespace {

using experiment::ParamSpec;
using experiment::Result;
using experiment::ScenarioContext;

struct Row {
  int replicas;
  int marginalized;
};

Result run(const ScenarioContext& ctx) {
  const std::vector<Row> rows =
      ctx.smoke() ? std::vector<Row>{{3, 0}, {3, 2}, {5, 2}}
                  : std::vector<Row>{{3, 0}, {3, 1}, {3, 2}, {5, 0},
                                     {5, 1}, {5, 2}, {5, 3}};

  Result result("collab_attackers");
  // The marginalization attack targets replica agreement, but the sweep
  // runs under any backend (--param policy=...): non-replicated ones show
  // a flat curve, the control the countermeasure rows compare against.
  // Each row runs a victim-free cloud, then one with the victim: one sweep
  // of independent points.
  const hypervisor::PolicyKind policy =
      hypervisor::policy_kind_from_choice(ctx.param_choice("policy"));
  std::vector<TimingScenarioConfig> configs;
  for (const Row& row : rows) {
    TimingScenarioConfig tc;
    tc.policy = policy;
    tc.replica_count = row.replicas;
    tc.run_time = Duration::from_seconds_f(ctx.param("run_time_s"));
    tc.seed = ctx.seed() ^ 91;
    tc.marginalize_machines = row.marginalized;
    tc.marginalize_load = ctx.param("marginalize_load");
    for (const bool victim : {false, true}) {
      tc.victim_present = victim;
      configs.push_back(tc);
    }
  }
  const std::vector<std::vector<double>> inter_arrival_ms = run_timing_sweep(
      ctx, configs,
      [](TimingScenarioResult r) { return std::move(r.inter_arrival_ms); });

  std::vector<double> replicas;
  std::vector<double> marginalized;
  std::vector<double> obs99;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    replicas.push_back(rows[k].replicas);
    marginalized.push_back(rows[k].marginalized);
    obs99.push_back(static_cast<double>(
        make_detector(inter_arrival_ms[2 * k], inter_arrival_ms[2 * k + 1],
                      ctx.param_choice("binning"))
            .observations_needed(0.99)));
  }
  result.add_series("replicas", "VMs", replicas);
  result.add_series("marginalized_hosts", "machines", marginalized);
  result.add_series("obs_needed_at_99", "observations", obs99);
  result.add_metric("obs99_3r_unmarginalized", obs99.front(), "observations");
  result.add_metric("obs99_last_row", obs99.back(), "observations");
  result.set_note(
      "Paper shape check: marginalizing hosts of a 3-replica VM weakens the "
      "defense (fewer observations needed); with 5 replicas the attacker "
      "must marginalize several hosts to regain the same advantage.");
  return result;
}

[[maybe_unused]] const experiment::ScenarioRegistrar kRegistrar{{
    .name = "collab_attackers",
    .description =
        "Sec. IX: collaborating attacker VMs marginalizing replica hosts, "
        "and the more-replicas countermeasure",
    .params = {ParamSpec{"run_time_s", "simulated seconds per run", 30.0,
                         5.0}.with_range(0.01, 3600),
               ParamSpec{"marginalize_load",
                         "induced load on marginalized hosts", 2.0}
                   .with_range(0, 100),
               binning_param(), policy_param()},
    .run = run,
}};

}  // namespace
}  // namespace stopwatch::bench
