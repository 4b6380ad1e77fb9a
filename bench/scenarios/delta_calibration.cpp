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

  // Δn sweep: victim-loaded attacker triple. Δd sweep: the file-serving
  // victim's disk path. The two sweeps' clouds are independent, so they
  // run as one pool of points, the Δn points first.
  const std::vector<int> dn_sweep =
      ctx.smoke() ? std::vector<int>{2, 6, 10}
                  : std::vector<int>{2, 4, 6, 8, 10, 12};
  const std::vector<int> dd_sweep =
      ctx.smoke() ? std::vector<int>{6, 10, 20}
                  : std::vector<int>{6, 8, 10, 12, 15, 20, 30};
  std::vector<TimingScenarioConfig> configs;
  for (const int dn : dn_sweep) {
    TimingScenarioConfig tc;
    tc.run_time = run_time;
    tc.delta_n = Duration::millis(dn);
    tc.seed = ctx.seed() ^ 77;
    configs.push_back(tc);
  }
  for (const int dd : dd_sweep) {
    TimingScenarioConfig tc;
    tc.run_time = run_time;
    tc.delta_d = Duration::millis(dd);
    tc.seed = ctx.seed() ^ 78;
    configs.push_back(tc);
  }
  // What a point reports: the Δn figures (proposal spread, median
  // margins) and the Δd figures (disk margins); each sweep reads its own.
  struct Point {
    double deliveries{0};
    double divergences{0};
    double spread_p99{0};
    double median_margin_min{0};
    double disk_margin_min{0};
    double disk_margin_p50{0};
  };
  const auto min_of = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
  };
  const std::vector<Point> points =
      run_timing_sweep(ctx, configs, [&](const TimingScenarioResult& r) {
        Point p;
        p.deliveries = static_cast<double>(r.deliveries);
        p.divergences = static_cast<double>(r.divergences);
        if (!r.proposal_spread_ms.empty()) {
          p.spread_p99 = stats::summarize(r.proposal_spread_ms).p99;
        }
        p.median_margin_min = min_of(r.median_margin_ms);
        p.disk_margin_min = min_of(r.disk_margin_ms);
        if (!r.disk_margin_ms.empty()) {
          p.disk_margin_p50 = stats::summarize(r.disk_margin_ms).p50;
        }
        return p;
      });

  long min_safe_delta_n_ms = -1;
  std::vector<double> dn_ms;
  std::vector<double> dn_deliveries;
  std::vector<double> dn_spread_p99;
  std::vector<double> dn_margin_min;
  std::vector<double> dn_divergences;
  for (std::size_t i = 0; i < dn_sweep.size(); ++i) {
    const Point& p = points[i];
    dn_ms.push_back(dn_sweep[i]);
    dn_deliveries.push_back(p.deliveries);
    dn_spread_p99.push_back(p.spread_p99);
    dn_margin_min.push_back(p.median_margin_min);
    dn_divergences.push_back(p.divergences);
    if (min_safe_delta_n_ms < 0 && p.divergences == 0) {
      min_safe_delta_n_ms = dn_sweep[i];
    }
  }
  result.add_series("delta_n", "ms", dn_ms);
  result.add_series("delta_n_deliveries", "packets", dn_deliveries);
  result.add_series("delta_n_proposal_spread_p99", "ms", dn_spread_p99);
  result.add_series("delta_n_median_margin_min", "ms", dn_margin_min);
  result.add_series("delta_n_divergences", "events", dn_divergences);
  result.add_metric("min_safe_delta_n",
                    static_cast<double>(min_safe_delta_n_ms), "ms");

  std::vector<double> dd_ms;
  std::vector<double> dd_margin_min;
  std::vector<double> dd_margin_p50;
  std::vector<double> dd_late;
  for (std::size_t i = 0; i < dd_sweep.size(); ++i) {
    const Point& p = points[dn_sweep.size() + i];
    dd_ms.push_back(dd_sweep[i]);
    dd_margin_min.push_back(p.disk_margin_min);
    dd_margin_p50.push_back(p.disk_margin_p50);
    dd_late.push_back(p.divergences);
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
