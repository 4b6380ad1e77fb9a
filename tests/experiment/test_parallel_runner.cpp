// The --jobs scenario execution engine: a parallel run must be
// byte-identical to the sequential run (per-task isolation + deterministic
// emission order), a throwing scenario must not take down its siblings, and
// outcomes must arrive in selection order regardless of completion order.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/registry.hpp"
#include "experiment/result.hpp"
#include "experiment/runner.hpp"

namespace stopwatch::experiment {
namespace {

/// A registry-registered scenario that always throws mid-run, to prove the
/// runner confines a failure to its own outcome slot.
[[maybe_unused]] const ScenarioRegistrar kThrowingRegistrar{{
    .name = "test_always_throws",
    .description = "test-only scenario that throws mid-run",
    .params = {},
    .run = [](const ScenarioContext&) -> Result {
      throw std::runtime_error("synthetic mid-run failure");
    },
}};

/// Cheap deterministic scenarios — the whole set runs in well under a
/// second in smoke mode, so both of this file's sweeps stay fast even
/// under TSan.
std::vector<const Scenario*> cheap_deterministic_selection() {
  const std::vector<std::string> names = {
      "fig1_median_analytic", "fig2_protocol_trace",    "fig4_interpacket",
      "fig5_file_download",   "fig7_parsec",            "fig8_noise_comparison",
      "placement_utilization"};
  std::vector<const Scenario*> selected;
  for (const std::string& name : names) {
    const Scenario* scenario = ScenarioRegistry::instance().find(name);
    EXPECT_NE(scenario, nullptr) << name;
    if (scenario != nullptr) selected.push_back(scenario);
  }
  return selected;
}

std::string report_of(const std::vector<ScenarioOutcome>& outcomes) {
  std::vector<Result> results;
  for (const ScenarioOutcome& outcome : outcomes) {
    if (outcome.ok) results.push_back(outcome.result);
  }
  return report_to_json(results);
}

TEST(ParallelRunner, EightJobsByteIdenticalToSequential) {
  const auto selected = cheap_deterministic_selection();
  const auto sequential =
      run_scenarios(selected, {}, /*seed=*/7, /*smoke=*/true, /*jobs=*/1);
  ASSERT_EQ(sequential.size(), selected.size());
  for (std::size_t i = 0; i < selected.size(); ++i) {
    EXPECT_TRUE(sequential[i].ok) << sequential[i].error;
  }
  // 0 means one job per hardware thread.
  for (const std::uint64_t jobs : {std::uint64_t{8}, std::uint64_t{0}}) {
    const auto parallel =
        run_scenarios(selected, {}, /*seed=*/7, /*smoke=*/true, jobs);
    ASSERT_EQ(parallel.size(), selected.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < selected.size(); ++i) {
      EXPECT_TRUE(parallel[i].ok) << parallel[i].error;
      EXPECT_EQ(parallel[i].name, selected[i]->name);
    }
    EXPECT_EQ(report_of(sequential), report_of(parallel)) << "jobs=" << jobs;
  }
}

TEST(ParallelRunner, SweepPointsByteIdenticalAcrossJobs) {
  // The four run_timing_scenario sweeps run their clouds as points on the
  // runner's thread budget: alone (every thread goes to one sweep) and
  // together (sweeps share what the scenarios leave), the report must not
  // know how many threads ran it.
  std::vector<const Scenario*> selected;
  for (const char* name : {"ablation_aggregation", "ablation_epoch_resync",
                           "collab_attackers", "delta_calibration"}) {
    const Scenario* scenario = ScenarioRegistry::instance().find(name);
    ASSERT_NE(scenario, nullptr) << name;
    selected.push_back(scenario);
  }
  const ParamOverrides short_runs = {{"run_time_s", "1"}};
  const auto sequential =
      run_scenarios(selected, short_runs, /*seed=*/7, /*smoke=*/true,
                    /*jobs=*/1);
  for (const ScenarioOutcome& outcome : sequential) {
    EXPECT_TRUE(outcome.ok) << outcome.name << ": " << outcome.error;
  }
  for (const std::uint64_t jobs : {std::uint64_t{4}, std::uint64_t{0}}) {
    EXPECT_EQ(report_of(sequential),
              report_of(run_scenarios(selected, short_runs, /*seed=*/7,
                                      /*smoke=*/true, jobs)))
        << "jobs=" << jobs;
  }
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const auto alone = run_scenarios({selected[i]}, short_runs, /*seed=*/7,
                                     /*smoke=*/true, /*jobs=*/4);
    EXPECT_EQ(report_of({sequential[i]}), report_of(alone))
        << selected[i]->name << " alone";
  }
}

TEST(ParallelRunner, ThrowingScenarioDoesNotTakeDownSiblings) {
  const Scenario* thrower =
      ScenarioRegistry::instance().find("test_always_throws");
  ASSERT_NE(thrower, nullptr);
  std::vector<const Scenario*> selected = cheap_deterministic_selection();
  // Place the failure in the middle so siblings run on both sides of it.
  selected.insert(selected.begin() + 3, thrower);

  for (const std::uint64_t jobs : {std::uint64_t{1}, std::uint64_t{4}}) {
    const auto outcomes =
        run_scenarios(selected, {}, /*seed=*/7, /*smoke=*/true, jobs);
    ASSERT_EQ(outcomes.size(), selected.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (outcomes[i].name == "test_always_throws") {
        EXPECT_FALSE(outcomes[i].ok);
        EXPECT_NE(outcomes[i].error.find("synthetic mid-run failure"),
                  std::string::npos)
            << outcomes[i].error;
      } else {
        EXPECT_TRUE(outcomes[i].ok)
            << outcomes[i].name << ": " << outcomes[i].error;
      }
    }
  }
}

TEST(ParallelRunner, CallbackFiresInSelectionOrder) {
  const auto selected = cheap_deterministic_selection();
  std::vector<std::size_t> seen;
  const auto outcomes = run_scenarios(
      selected, {}, /*seed=*/3, /*smoke=*/true, /*jobs=*/8,
      [&](const ScenarioOutcome& outcome, std::size_t index) {
        EXPECT_EQ(outcome.name, selected[index]->name);
        seen.push_back(index);
      });
  ASSERT_EQ(outcomes.size(), selected.size());
  ASSERT_EQ(seen.size(), selected.size());
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(ParallelRunner, OverridesApplyOnlyToDeclaringScenarios) {
  std::vector<const Scenario*> selected = {
      ScenarioRegistry::instance().find("fig2_protocol_trace"),
      ScenarioRegistry::instance().find("placement_utilization")};
  ASSERT_NE(selected[0], nullptr);
  ASSERT_NE(selected[1], nullptr);
  const ParamOverrides overrides = {{"run_time_s", "0.25"}};
  const auto outcomes =
      run_scenarios(selected, overrides, /*seed=*/5, /*smoke=*/true,
                    /*jobs=*/2);
  ASSERT_TRUE(outcomes[0].ok) << outcomes[0].error;
  ASSERT_TRUE(outcomes[1].ok) << outcomes[1].error;
  EXPECT_NE(outcomes[0].result.to_json().find("\"run_time_s\": 0.25"),
            std::string::npos);
  EXPECT_EQ(outcomes[1].result.to_json().find("run_time_s"),
            std::string::npos);
}

TEST(ParallelRunner, DerivedSeedsDecorrelateScenariosButStampUserSeed) {
  // Two scenarios run under one invocation seed draw different RNG streams
  // (the derived seed mixes in the name) but both stamp the user's seed.
  EXPECT_NE(derive_scenario_seed(7, "fig4_interpacket"),
            derive_scenario_seed(7, "fig6_nfs"));
  EXPECT_NE(derive_scenario_seed(7, "fig4_interpacket"),
            derive_scenario_seed(8, "fig4_interpacket"));
  const Result r = ScenarioRegistry::instance().run(
      "fig1_median_analytic", /*seed=*/42, /*smoke=*/true);
  EXPECT_NE(r.to_json().find("\"seed\": 42"), std::string::npos);
}

}  // namespace
}  // namespace stopwatch::experiment
