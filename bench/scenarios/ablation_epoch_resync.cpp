// Scenario E12 — Ablation: epoch-based virtual-clock resynchronization
// (Sec. IV-A).
//
// virt(instr) drifts from real time when the machine's instruction rate
// differs from the slope's assumption. The optional epoch mechanism
// exchanges (D_k, R_k) reports, picks the median, and rebases the clock
// with a clamped slope. Smaller epochs track real time better — but tighter
// coupling to real time risks re-opening the timing channel; "virt should
// be adjusted ... only with large I values".
#include <algorithm>
#include <cstdint>
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

struct Outcome {
  double drift_s{0};
  long obs99{0};
  std::uint64_t clean_divergences{0};
  std::uint64_t victim_divergences{0};
};

Result run(const ScenarioContext& ctx) {
  Result result("ablation_epoch_resync");

  const std::vector<std::uint64_t> epochs =
      ctx.smoke() ? std::vector<std::uint64_t>{400'000'000}
                  : std::vector<std::uint64_t>{100'000'000, 400'000'000,
                                               1'600'000'000};
  // Resync disabled (epoch 0), then enabled at each epoch length; each
  // setting runs a victim-free cloud, then one with the victim: one sweep
  // of independent points.
  std::vector<std::uint64_t> settings = {0};
  settings.insert(settings.end(), epochs.begin(), epochs.end());
  std::vector<TimingScenarioConfig> configs;
  for (const std::uint64_t epoch_instr : settings) {
    TimingScenarioConfig tc;
    tc.run_time = Duration::from_seconds_f(ctx.param("run_time_s"));
    tc.seed = ctx.seed() ^ 51;
    tc.epoch_resync = epoch_instr != 0;
    tc.epoch_instr = epoch_instr;
    // The machines run 6% faster than the initial slope assumes, so the
    // uncorrected virtual clock drifts ahead of real time.
    tc.base_ips = 1.06e9;
    tc.slope_min = 0.80;
    tc.slope_max = 1.20;
    for (const bool victim : {false, true}) {
      tc.victim_present = victim;
      configs.push_back(tc);
    }
  }
  struct Run {
    std::vector<double> inter_arrival_ms;
    double drift_s{0};
    std::uint64_t divergences{0};
  };
  const std::vector<Run> runs =
      run_timing_sweep(ctx, configs, [](TimingScenarioResult r) {
        return Run{std::move(r.inter_arrival_ms), r.clock_drift_s,
                   r.divergences};
      });
  const auto outcome = [&](std::size_t k) {
    const Run& clean = runs[2 * k];
    const Run& victim = runs[2 * k + 1];
    Outcome out;
    out.drift_s = clean.drift_s;
    out.obs99 = make_detector(clean.inter_arrival_ms, victim.inter_arrival_ms,
                              ctx.param_choice("binning"))
                    .observations_needed(0.99);
    out.clean_divergences = clean.divergences;
    out.victim_divergences = victim.divergences;
    return out;
  };

  const Outcome off = outcome(0);
  result.add_metric("disabled_drift", off.drift_s, "s");
  result.add_metric("disabled_obs99", static_cast<double>(off.obs99),
                    "observations");
  result.add_metric("disabled_clean_divergences",
                    static_cast<double>(off.clean_divergences), "events");

  std::vector<double> epoch_minstr;
  std::vector<double> drift_s;
  std::vector<double> obs99;
  std::vector<double> clean_div;
  std::vector<double> victim_div;
  double max_resync_drift = 0.0;
  for (std::size_t k = 0; k < epochs.size(); ++k) {
    const Outcome on = outcome(k + 1);
    epoch_minstr.push_back(static_cast<double>(epochs[k] / 1'000'000));
    drift_s.push_back(on.drift_s);
    obs99.push_back(static_cast<double>(on.obs99));
    clean_div.push_back(static_cast<double>(on.clean_divergences));
    victim_div.push_back(static_cast<double>(on.victim_divergences));
    max_resync_drift = std::max(max_resync_drift, on.drift_s);
  }
  result.add_series("epoch_instructions", "Minstr", epoch_minstr);
  result.add_series("resync_drift", "s", drift_s);
  result.add_series("resync_obs99", "observations", obs99);
  result.add_series("resync_clean_divergences", "events", clean_div);
  result.add_series("resync_victim_divergences", "events", victim_div);
  result.add_metric("max_resync_drift", max_resync_drift, "s");
  result.set_note(
      "Design-choice check: resync bounds the drift that is unbounded when "
      "disabled, at no drift-free divergence; a marginalized replica can "
      "miss epoch reports under victim load — use epoch resync only with "
      "large I, as Sec. IV-A recommends.");
  return result;
}

[[maybe_unused]] const experiment::ScenarioRegistrar kRegistrar{{
    .name = "ablation_epoch_resync",
    .description =
        "Ablation: epoch-based virtual-clock resynchronization (drift vs "
        "leak risk vs missed epoch reports), machines running 6% fast",
    .params = {ParamSpec{"run_time_s", "simulated seconds per run", 30.0,
                         5.0}.with_range(0.01, 3600),
               binning_param()},
    .deterministic = true,
    .run = run,
}};

}  // namespace
}  // namespace stopwatch::bench
