// Scenario E11 — Ablation: why the *median*?
//
// The paper argues (Secs. II, III) that prior replication systems let one
// replica dictate timing — which simply copies a coresident victim's signal
// to all replicas — and that the median of three is the right aggregate.
// Replays the Fig. 4 experiment under four aggregation rules: median
// (StopWatch), min, max, and leader-dictates (with the leader chosen
// adversarially as the victim-coresident machine).
#include <string>

#include "bench_util.hpp"
#include "experiment/registry.hpp"

namespace stopwatch::bench {
namespace {

using experiment::ParamSpec;
using experiment::Result;
using experiment::ScenarioContext;

struct Outcome {
  long obs99{0};
  double mean_wait_ms{0};
};

Outcome evaluate(hypervisor::AggregationRule rule, const ScenarioContext& ctx) {
  TimingScenarioConfig base;
  base.run_time = Duration::from_seconds_f(ctx.param("run_time_s"));
  base.seed = ctx.seed() ^ 61;
  base.aggregation = rule;
  // Adversarial leader: the machine shared with the victim (index r-1).
  base.leader_machine = static_cast<std::uint32_t>(base.replica_count - 1);

  TimingScenarioConfig clean = base;
  clean.victim_present = false;
  TimingScenarioConfig vic = base;
  vic.victim_present = true;

  const auto r_clean = run_timing_scenario(clean);
  const auto r_vic = run_timing_scenario(vic);
  Outcome out;
  out.obs99 = make_detector(r_clean.inter_arrival_ms, r_vic.inter_arrival_ms,
                            ctx.param_choice("binning"))
                  .observations_needed(0.99);
  out.mean_wait_ms = r_clean.median_margin_ms.empty()
                         ? 0.0
                         : stats::summarize(r_clean.median_margin_ms).mean;
  return out;
}

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
  const std::string& selected = ctx.param_choice("aggregation");
  long median_obs99 = 0;
  for (const auto& [name, rule] : rules) {
    if (selected != "all" && selected != name) continue;
    const Outcome out = evaluate(rule, ctx);
    if (rule == hypervisor::AggregationRule::kMedian) {
      median_obs99 = out.obs99;
    }
    result.add_metric(std::string(name) + "_obs99",
                      static_cast<double>(out.obs99), "observations");
    result.add_metric(std::string(name) + "_mean_slack", out.mean_wait_ms,
                      "ms");
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
