// The placement-scale end-to-end scenario: its measured co-residence and
// utilization must agree with the analytic placement_utilization numbers,
// lazy wiring must only pay for driven VMs, and — like every deterministic
// scenario — its JSON must be byte-identical across reruns and --jobs
// settings.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/cloud.hpp"
#include "experiment/registry.hpp"
#include "experiment/result.hpp"
#include "experiment/runner.hpp"

namespace stopwatch::experiment {
namespace {

TEST(PlacementE2e, SmokeRunCrossChecksAnalyticPlacement) {
  const Result r =
      ScenarioRegistry::instance().run("placement_e2e", /*seed=*/7,
                                       /*smoke=*/true);
  // n = 501 end to end, at the full Θ(n²) placement.
  EXPECT_EQ(r.metric("machines"), 501.0);
  EXPECT_EQ(r.metric("vms_placed"), 41750.0);
  EXPECT_EQ(r.metric("placement_valid"), 1.0);

  // Agreement with the analytic placement_utilization quantities: the
  // constructed improvement factor hits the Theorem 2 bound exactly, and
  // the sampled co-residence probability lands within the scenario's
  // stated 25% relative tolerance of the occupancy-exact value.
  EXPECT_EQ(r.metric("agrees_with_placement_utilization"), 1.0);
  EXPECT_EQ(r.metric("coresidence_within_tolerance"), 1.0);
  EXPECT_NEAR(r.metric("coresidence_measured"),
              r.metric("coresidence_analytic"),
              0.25 * r.metric("coresidence_analytic"));

  // And the same number placement_utilization itself reports at n = 501.
  const Result analytic = ScenarioRegistry::instance().run(
      "placement_utilization", /*seed=*/7, /*smoke=*/false);
  EXPECT_DOUBLE_EQ(r.metric("improvement_over_isolation"),
                   analytic.metric("improvement_over_isolation_at_largest_n"));

  // End-to-end pipeline health over the driven sample.
  EXPECT_GT(r.metric("replies_received"), 0.0);
  EXPECT_EQ(r.metric("replies_received"), r.metric("egress_packets_released"));
  EXPECT_EQ(r.metric("driven_replica_placement_errors"), 0.0);
  EXPECT_EQ(r.metric("nondeterministic_vms"), 0.0);
  EXPECT_EQ(r.metric("divergences"), 0.0);

  // Lazy wiring: only the driven sample materialized replicas.
  EXPECT_EQ(r.metric("lazy_materialized_only_driven"), 1.0);
  EXPECT_EQ(r.metric("materialized_vms"), r.metric("driven_vms"));
}

TEST(PlacementE2e, JobsZeroByteIdenticalToSequential) {
  // The satellite guarantee: running placement_e2e alongside siblings on
  // the thread pool (--jobs 0 = hardware threads) serializes to exactly
  // the bytes of the sequential run.
  const std::vector<std::string> names = {
      "fig2_protocol_trace", "placement_e2e", "placement_utilization"};
  std::vector<const Scenario*> selected;
  for (const std::string& name : names) {
    const Scenario* s = ScenarioRegistry::instance().find(name);
    ASSERT_NE(s, nullptr) << name;
    selected.push_back(s);
  }
  const auto report_of = [](const std::vector<ScenarioOutcome>& outcomes) {
    std::vector<Result> results;
    for (const ScenarioOutcome& o : outcomes) {
      if (o.ok) results.push_back(o.result);
    }
    return report_to_json(results);
  };
  const auto sequential =
      run_scenarios(selected, {}, /*seed=*/3, /*smoke=*/true, /*jobs=*/1);
  const auto parallel =
      run_scenarios(selected, {}, /*seed=*/3, /*smoke=*/true, /*jobs=*/0);
  for (const auto& o : sequential) EXPECT_TRUE(o.ok) << o.error;
  for (const auto& o : parallel) EXPECT_TRUE(o.ok) << o.error;
  EXPECT_EQ(report_of(sequential), report_of(parallel));
}

TEST(PlacementE2e, AdaptiveWindowCutsBarriersThreefold) {
  // The barrier claim, asserted on the scenario's own observability
  // counters: on the 4-core smoke run each core's window reaches the
  // earliest time cross-shard traffic could still arrive, so idle
  // stretches cost one window — at least 3x fewer barriers than one per
  // fabric-floor window over the run's span.
  const Result r = ScenarioRegistry::instance().run(
      "placement_e2e", /*seed=*/11, /*smoke=*/true,
      {{"machines", "99"},
       {"driven_vms", "8"},
       {"run_time_s", "0.4"},
       {"pair_samples", "2000"},
       {"sim_shards", "4"}});
  const auto counter = [&r](const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : r.observability().counters) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  // The scenario runs its 0.4 s of traffic plus a 0.5 s drain.
  const std::uint64_t span_ns = 900'000'000;
  const std::uint64_t barriers = counter("sharded.barriers");
  const auto floor_ns = static_cast<std::uint64_t>(
      core::CloudConfig{}.cloud_link.min_latency().ns);
  ASSERT_GT(barriers, 0u);
  ASSERT_GT(floor_ns, 0u);
  EXPECT_GT(counter("sharded.adaptive_extensions"), 0u);
  EXPECT_LE(3 * barriers, span_ns / floor_ns)
      << "barriers=" << barriers << " floor_ns=" << floor_ns;
}

TEST(PlacementE2e, GreedyPlacementModeRunsArbitraryN) {
  // The enum knob switches the construction; greedy handles n not ≡ 3
  // (mod 6) where Theorem 2 does not apply.
  const Result r = ScenarioRegistry::instance().run(
      "placement_e2e", /*seed=*/5, /*smoke=*/true,
      {{"machines", "100"},
       {"placement", "greedy"},
       {"driven_vms", "4"},
       {"pair_samples", "5000"}});
  EXPECT_EQ(r.metric("machines"), 100.0);
  EXPECT_EQ(r.metric("placement_valid"), 1.0);
  EXPECT_GT(r.metric("vms_placed"), 100.0);  // well past one VM per machine
  EXPECT_EQ(r.metric("coresidence_within_tolerance"), 1.0);
  EXPECT_EQ(r.metric("divergences"), 0.0);
}

}  // namespace
}  // namespace stopwatch::experiment
