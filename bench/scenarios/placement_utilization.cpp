// Scenario E8 — Paper Sec. VIII (Theorems 1 & 2): cloud utilization under
// StopWatch's placement constraint (replica triples = edge-disjoint
// triangles of K_n). Validates every constructed placement; wall-clock
// construction time is deliberately NOT a metric here (see the microbench
// scenario) so this scenario stays byte-deterministic.
#include <algorithm>
#include <vector>

#include "experiment/registry.hpp"
#include "placement/placement.hpp"

namespace stopwatch::bench {
namespace {

using experiment::ParamSpec;
using experiment::Result;
using experiment::ScenarioContext;
using namespace stopwatch::placement;

Result run(const ScenarioContext& ctx) {
  const int max_n = ctx.param_int("max_n");

  Result result("placement_utilization");

  // Theorem 1: maximum edge-disjoint triangle packings of K_n.
  std::vector<double> thm1_n;
  std::vector<double> thm1_vms;
  std::vector<double> thm1_edge_fraction;
  for (const int n : {9, 15, 21, 33, 45, 63, 99, 201}) {
    if (n > max_n) break;
    const long k = max_triangle_packing(n);
    const double edges = static_cast<double>(n) * (n - 1) / 2.0;
    thm1_n.push_back(n);
    thm1_vms.push_back(static_cast<double>(k));
    thm1_edge_fraction.push_back(3.0 * static_cast<double>(k) / edges);
  }
  result.add_series("thm1_n", "machines", thm1_n);
  result.add_series("thm1_max_vms", "VMs", thm1_vms);
  result.add_series("thm1_edge_fraction_used", "", thm1_edge_fraction);

  // Theorem 2: constructive placement at n = 21 for every capacity c
  // (covers all residue classes of c mod 3).
  int thm2_invalid = 0;
  std::vector<double> thm2_c;
  std::vector<double> thm2_bound;
  std::vector<double> thm2_placed;
  for (int c = 1; c <= 10; ++c) {
    const auto placement = theorem2_placement(21, c);
    if (!valid_placement(placement, 21, c)) ++thm2_invalid;
    thm2_c.push_back(c);
    thm2_bound.push_back(static_cast<double>(theorem2_bound(21, c)));
    thm2_placed.push_back(static_cast<double>(placement.size()));
  }
  result.add_series("thm2_n21_capacity", "VMs/machine", thm2_c);
  result.add_series("thm2_n21_bound", "VMs", thm2_bound);
  result.add_series("thm2_n21_placed", "VMs", thm2_placed);
  result.add_metric("thm2_n21_invalid_placements",
                    static_cast<double>(thm2_invalid), "placements");

  // Theorem 2 at scale, full capacity c = (n-1)/2: utilization improvement
  // over isolation (one VM per machine).
  int scale_invalid = 0;
  double improvement_at_largest = 0.0;
  std::vector<double> scale_n;
  std::vector<double> scale_placed;
  std::vector<double> scale_improvement;
  for (const int n : {9, 21, 45, 99, 201, 501}) {
    if (n > max_n) break;
    const int c = (n - 1) / 2;
    const auto placement = theorem2_placement(n, c);
    if (!valid_placement(placement, n, c)) ++scale_invalid;
    const double improvement = static_cast<double>(placement.size()) / n;
    improvement_at_largest = improvement;
    scale_n.push_back(n);
    scale_placed.push_back(static_cast<double>(placement.size()));
    scale_improvement.push_back(improvement);
  }
  result.add_series("thm2_scale_n", "machines", scale_n);
  result.add_series("thm2_scale_placed", "VMs", scale_placed);
  result.add_series("thm2_scale_improvement_over_isolation", "x",
                    scale_improvement);
  result.add_metric("thm2_scale_invalid_placements",
                    static_cast<double>(scale_invalid), "placements");
  result.add_metric("improvement_over_isolation_at_largest_n",
                    improvement_at_largest, "x");

  // Greedy packing for general n (the practical fallback).
  double min_fraction = 1.0;
  std::vector<double> greedy_n;
  std::vector<double> greedy_fraction;
  for (const int n : {10, 16, 20, 32, 50, 64, 100}) {
    if (n > max_n) break;
    const auto packing = greedy_packing(n);
    const long bound = max_triangle_packing(n);
    const double fraction =
        static_cast<double>(packing.size()) / static_cast<double>(bound);
    min_fraction = std::min(min_fraction, fraction);
    greedy_n.push_back(n);
    greedy_fraction.push_back(fraction);
  }
  result.add_series("greedy_n", "machines", greedy_n);
  result.add_series("greedy_fraction_of_bound", "", greedy_fraction);
  result.add_metric("greedy_min_fraction_of_bound", min_fraction, "");

  result.set_note(
      "Paper shape check: Theta(cn) guest VMs vs n under isolation — at "
      "full capacity the cloud hosts (n-1)/6 times more guests; every "
      "constructed placement validates.");
  return result;
}

[[maybe_unused]] const experiment::ScenarioRegistrar kRegistrar{{
    .name = "placement_utilization",
    .description =
        "Sec. VIII: replica placement utilization (Theorem 1 packing bound, "
        "Theorem 2 construction, greedy fallback), all placements validated",
    .params = {ParamSpec{"max_n", "largest machine count exercised", 501.0,
                         99.0}.with_int_range(9, 10000)},
    .run = run,
}};

}  // namespace
}  // namespace stopwatch::bench
