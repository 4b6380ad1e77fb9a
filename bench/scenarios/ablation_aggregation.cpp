// Scenario E11 — Ablation: why the *median*?
//
// The paper argues (Secs. II, III) that prior replication systems let one
// replica dictate timing — which simply copies a coresident victim's signal
// to all replicas — and that the median of three is the right aggregate.
// Replays the Fig. 4 experiment under four aggregation rules: median
// (StopWatch), min, max, and leader-dictates (with the leader chosen
// adversarially as the victim-coresident machine).
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "experiment/registry.hpp"

namespace stopwatch::bench {
namespace {

using experiment::ParamSpec;
using experiment::Result;
using experiment::ScenarioContext;

Result run(const ScenarioContext& ctx) {
  Result result("ablation_aggregation");
  const struct {
    const char* name;
    hypervisor::AggregationRule rule;
  } rules[] = {
      {"median", hypervisor::AggregationRule::kMedian},
      {"min", hypervisor::AggregationRule::kMin},
      {"max", hypervisor::AggregationRule::kMax},
      {"leader", hypervisor::AggregationRule::kLeader},
  };
  // "all" sweeps every rule and adds the cross-rule shape check; naming a
  // single rule evaluates just that aggregation (the CLI-exposed axis).
  // Each evaluated rule runs a victim-free cloud, then one with the
  // victim: one sweep of independent points.
  const std::string& selected = ctx.param_choice("aggregation");
  std::vector<std::string> names;
  std::vector<TimingScenarioConfig> configs;
  for (const auto& [name, rule] : rules) {
    if (selected != "all" && selected != name) continue;
    names.emplace_back(name);
    TimingScenarioConfig tc;
    tc.run_time = Duration::from_seconds_f(ctx.param("run_time_s"));
    tc.seed = ctx.seed() ^ 61;
    tc.aggregation = rule;
    // Adversarial leader: the machine shared with the victim (index r-1).
    tc.leader_machine = static_cast<std::uint32_t>(tc.replica_count - 1);
    for (const bool victim : {false, true}) {
      tc.victim_present = victim;
      configs.push_back(tc);
    }
  }
  struct Run {
    std::vector<double> inter_arrival_ms;
    double mean_slack_ms{0};
  };
  const std::vector<Run> runs =
      run_timing_sweep(ctx, configs, [](TimingScenarioResult r) {
        const double mean_slack_ms =
            r.median_margin_ms.empty()
                ? 0.0
                : stats::summarize(r.median_margin_ms).mean;
        return Run{std::move(r.inter_arrival_ms), mean_slack_ms};
      });

  long median_obs99 = 0;
  for (std::size_t k = 0; k < names.size(); ++k) {
    const Run& clean = runs[2 * k];
    const Run& victim = runs[2 * k + 1];
    const long obs99 = make_detector(clean.inter_arrival_ms,
                                     victim.inter_arrival_ms,
                                     ctx.param_choice("binning"))
                           .observations_needed(0.99);
    if (names[k] == "median") median_obs99 = obs99;
    result.add_metric(names[k] + "_obs99", static_cast<double>(obs99),
                      "observations");
    result.add_metric(names[k] + "_mean_slack", clean.mean_slack_ms, "ms");
  }
  if (selected == "all") {
    result.add_metric("median_obs99_is_max",
                      median_obs99 >= result.metric("min_obs99") &&
                              median_obs99 >= result.metric("max_obs99") &&
                              median_obs99 >= result.metric("leader_obs99")
                          ? 1.0
                          : 0.0,
                      "bool");
  }
  result.set_note(
      "Design-choice check: the median needs the most attacker observations; "
      "min and an adversarial leader expose the victim's host directly; max "
      "pays more delivery slack without beating the median's protection.");
  return result;
}

[[maybe_unused]] const experiment::ScenarioRegistrar kRegistrar{{
    .name = "ablation_aggregation",
    .description =
        "Ablation: delivery-time aggregation rule (median vs min/max/"
        "adversarial leader) on the Fig. 4 timing channel",
    .params = {ParamSpec{"run_time_s", "simulated seconds per run", 30.0,
                         5.0}.with_range(0.01, 3600),
               ParamSpec::enumeration(
                   "aggregation",
                   "delivery-time aggregation rule to evaluate", "all",
                   {"all", "median", "min", "max", "leader"}),
               binning_param()},
    .deterministic = true,
    .run = run,
}};

}  // namespace
}  // namespace stopwatch::bench
