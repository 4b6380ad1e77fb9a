// Scenario E6 — Paper Fig. 7: PARSEC-like computational workloads.
// (a) average runtimes over repeated runs, baseline vs StopWatch;
// (b) disk interrupts per run — the paper shows StopWatch's absolute
//     overhead is directly correlated with the disk-interrupt count.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "core/cloud.hpp"
#include "experiment/registry.hpp"
#include "obs/metrics.hpp"
#include "stats/summary.hpp"
#include "workload/parsec.hpp"

namespace stopwatch::bench {
namespace {

using experiment::ParamSpec;
using experiment::Result;
using experiment::ScenarioContext;

struct AppResult {
  double avg_runtime_ms{0};
  std::uint64_t disk_interrupts{0};
  obs::Snapshot obs;
};

AppResult run_app(const workload::ParsecAppSpec& spec, core::PolicyKind policy,
                  int runs, std::uint64_t seed, int sim_shards) {
  std::vector<double> runtimes;
  std::uint64_t disk_irqs = 0;
  obs::Snapshot last_obs;
  for (int run = 0; run < runs; ++run) {
    core::CloudConfig cfg;
    cfg.sim_shards = sim_shards;
    cfg.seed = seed + static_cast<std::uint64_t>(run);
    cfg.policy = policy;
    cfg.machine_count = 3;
    // PARSEC profile: warm page cache / sequential readahead -> short
    // positioning times; Δd chosen as in Sec. VII-A (8-15 ms).
    cfg.machine_template.disk_seek_min = Duration::micros(500);
    cfg.machine_template.disk_seek_max = Duration::millis(3);
    if (hypervisor::policy_replicated(policy)) {
      cfg.policy.stopwatch.delta_d = Duration::millis(9);
    }
    core::Cloud cloud(cfg);

    bool done = false;
    RealTime finish{};
    const NodeId collector = cloud.add_external_node([&](const net::Packet&) {
      done = true;
      finish = cloud.simulator().now();
    });
    const core::VmHandle vm = cloud.add_vm(
        spec.name,
        [&spec, collector] {
          return std::make_unique<workload::ParsecProgram>(spec, collector, 1);
        },
        {0, 1, 2});
    cloud.start();
    while (!done) cloud.run_for(Duration::millis(200));
    runtimes.push_back(finish.to_seconds() * 1e3);
    disk_irqs = cloud.replica(vm, 0).guest_counters().disk_interrupts;
    cloud.halt_all();
    last_obs = cloud.observability();
  }
  return {stats::summarize(runtimes).mean, disk_irqs, std::move(last_obs)};
}

Result run(const ScenarioContext& ctx) {
  const auto& suite = workload::parsec_suite();
  const auto app_count = std::min(
      static_cast<std::size_t>(ctx.param_int("app_count")), suite.size());
  const int runs = ctx.param_int("runs_per_app");
  const int sim_shards = ctx.param_int("sim_shards");
  // The mitigated arm is selectable (--param policy=...); the comparison
  // arm is always unmodified Xen. Metric names keep the historical
  // "stopwatch" labels for the mitigated arm regardless of the choice.
  const core::PolicyKind mitigated =
      hypervisor::policy_kind_from_choice(ctx.param_choice("policy"));

  Result result("fig7_parsec");
  double worst_ratio = 0.0;
  obs::Snapshot last_obs;
  for (std::size_t i = 0; i < app_count; ++i) {
    const auto& spec = suite[i];
    const AppResult base = run_app(spec, core::PolicyKind::kBaselineXen, runs,
                                   ctx.seed() + 1000, sim_shards);
    AppResult sw =
        run_app(spec, mitigated, runs, ctx.seed() + 1000, sim_shards);
    last_obs = std::move(sw.obs);
    const double ratio = sw.avg_runtime_ms / base.avg_runtime_ms;
    worst_ratio = std::max(worst_ratio, ratio);
    result.add_metric(spec.name + "_baseline_runtime", base.avg_runtime_ms,
                      "ms");
    result.add_metric(spec.name + "_stopwatch_runtime", sw.avg_runtime_ms,
                      "ms");
    result.add_metric(spec.name + "_overhead_ratio", ratio, "x");
    result.add_metric(spec.name + "_disk_interrupts",
                      static_cast<double>(sw.disk_interrupts), "interrupts");
    result.add_metric(spec.name + "_paper_overhead_ratio",
                      spec.paper_stopwatch_ms / spec.paper_baseline_ms, "x");
  }
  result.add_metric("worst_overhead_ratio", worst_ratio, "x");
  result.set_note(
      "Paper shape check: overhead <= ~2.3x per app, and the absolute "
      "overhead tracks the disk-interrupt count (Fig. 7(b)).");
  // Last mitigated run's kernel/fabric counters. Shard-dependent counters
  // live here, so cross-sim_shards comparisons strip the block.
  result.set_observability(std::move(last_obs));
  return result;
}

[[maybe_unused]] const experiment::ScenarioRegistrar kRegistrar{{
    .name = "fig7_parsec",
    .description =
        "Fig. 7: PARSEC-like app runtimes and disk interrupts, baseline Xen "
        "vs StopWatch",
    .params = {ParamSpec{"app_count", "apps from the PARSEC-like suite", 5.0,
                         2.0}.with_int_range(1, 5),
               ParamSpec{"runs_per_app", "runs averaged per app", 5.0, 1.0}
                   .with_int_range(1, 100),
               sim_shards_param(), policy_param()},
    .run = run,
}};

}  // namespace
}  // namespace stopwatch::bench
