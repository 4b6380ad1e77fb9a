// The leakage scenarios through the registry: the paper-shape acceptance
// properties (capacity falls with replica count and matches the analytic
// order-statistics channel; aggregated observations track the logarithmic
// bound), per-workload bits metrics, --jobs byte-identity, and the
// detection scenarios' new binning knob.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "experiment/registry.hpp"
#include "experiment/result.hpp"
#include "experiment/runner.hpp"

namespace stopwatch::experiment {
namespace {

TEST(LeakageScenarios, RegisteredWithBinningKnob) {
  const auto& registry = ScenarioRegistry::instance();
  for (const std::string name : {"leakage_capacity", "leakage_workloads"}) {
    const Scenario* s = registry.find(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_TRUE(s->deterministic) << name;
    bool has_binning = false;
    for (const ParamSpec& p : s->params) {
      if (p.name == "binning") {
        has_binning = true;
        EXPECT_EQ(p.kind, ParamSpec::Kind::kEnum);
        EXPECT_EQ(p.choices_joined(), "fixed|adaptive|sturges");
      }
    }
    EXPECT_TRUE(has_binning) << name;
  }
}

/// One shared smoke run: several tests assert on different facets of the
/// same deterministic result, and sanitizer jobs should not pay for the
/// Monte-Carlo sampling more than once.
const Result& capacity_smoke_result() {
  static const Result r = ScenarioRegistry::instance().run(
      "leakage_capacity", /*seed=*/7, /*smoke=*/true);
  return r;
}

TEST(LeakageScenarios, CapacityFallsWithReplicasAndMatchesAnalyticBound) {
  const Result& r = capacity_smoke_result();
  // The headline acceptance property: replication shrinks the channel.
  EXPECT_GT(r.metric("capacity_bits_r1"), r.metric("capacity_bits_r3"));
  EXPECT_GT(r.metric("capacity_bits_r3"), r.metric("capacity_bits_r5"));
  EXPECT_EQ(r.metric("capacity_decreases_with_replicas"), 1.0);
  // Debiased measurements sit within tolerance of the analytic
  // order-statistics channel (relative, with a 0.02-bit floor for the
  // noise-dominated r = 5 channel).
  EXPECT_LT(r.metric("max_capacity_rel_error"), 0.40);
  // The channel genuinely exists (r = 1 leaks a measurable fraction of a
  // bit under the default load spread) and the analytic values agree in
  // ordering too.
  EXPECT_GT(r.metric("capacity_bits_r1"), 0.1);
  EXPECT_GT(r.metric("analytic_capacity_bits_r1"),
            r.metric("analytic_capacity_bits_r3"));
  EXPECT_GT(r.metric("analytic_capacity_bits_r3"),
            r.metric("analytic_capacity_bits_r5"));
}

TEST(LeakageScenarios, AggregatedObservationsTrackLogarithmicBound) {
  const Result& r = capacity_smoke_result();
  // More observations never lose bits, gains stay under the Gaussian
  // 1/2 log2(1 + n SNR) bound (modulo estimator slack), and the ladder
  // never exceeds the secret's entropy.
  EXPECT_EQ(r.metric("mi_vs_obs_nondecreasing"), 1.0);
  EXPECT_LT(r.metric("max_excess_over_bound"), 0.12);
  EXPECT_GT(r.metric("mi_at_max_obs"), r.metric("mi_at_1_obs"));
  EXPECT_LE(r.metric("mi_at_max_obs"), r.metric("secret_entropy") + 1e-9);
}

TEST(LeakageScenarios, WorkloadsReportBitsPerWorkloadAndPolicy) {
  const Result r = ScenarioRegistry::instance().run(
      "leakage_workloads", /*seed=*/7, /*smoke=*/true);
  for (const std::string w : {"file", "nfs", "parsec"}) {
    for (const std::string p : {"baseline", "stopwatch"}) {
      EXPECT_GT(r.metric("observations_" + w + "_" + p), 0.0) << w << p;
      const double mi = r.metric("mi_bits_" + w + "_" + p);
      EXPECT_GE(mi, 0.0) << w << p;
      // file/nfs have 3 classes, parsec 2 — H(C) caps the estimate.
      EXPECT_LE(mi, w == "parsec" ? 1.0 + 1e-9 : std::log2(3.0) + 1e-9)
          << w << p;
    }
  }
}

TEST(LeakageScenarios, JobsEightByteIdenticalToSequential) {
  const auto& registry = ScenarioRegistry::instance();
  std::vector<const Scenario*> selected = {
      registry.find("leakage_capacity"), registry.find("leakage_workloads")};
  ASSERT_NE(selected[0], nullptr);
  ASSERT_NE(selected[1], nullptr);
  const auto sequential =
      run_scenarios(selected, {}, /*seed=*/9, /*smoke=*/true, /*jobs=*/1);
  const auto parallel =
      run_scenarios(selected, {}, /*seed=*/9, /*smoke=*/true, /*jobs=*/8);
  ASSERT_EQ(sequential.size(), 2u);
  ASSERT_EQ(parallel.size(), 2u);
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    ASSERT_TRUE(sequential[i].ok) << sequential[i].error;
    ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
    EXPECT_EQ(sequential[i].result.to_json(), parallel[i].result.to_json());
  }
}

TEST(DetectionBinningKnob, ChoicesChangeTheDetectorAndStampTheJson) {
  // Short runs: the knob test needs identical samples per layout, not a
  // full Fig. 4 reproduction.
  const auto& registry = ScenarioRegistry::instance();
  const Result adaptive =
      registry.run("fig4_interpacket", /*seed=*/5,
                   /*smoke=*/true, {{"run_time_s", "2"}});
  const Result fixed =
      registry.run("fig4_interpacket", /*seed=*/5,
                   /*smoke=*/true,
                   {{"run_time_s", "2"}, {"binning", "fixed"}});
  const Result sturges =
      registry.run("fig4_interpacket", /*seed=*/5,
                   /*smoke=*/true,
                   {{"run_time_s", "2"}, {"binning", "sturges"}});
  EXPECT_NE(adaptive.to_json().find("\"binning\": \"adaptive\""),
            std::string::npos);
  EXPECT_NE(fixed.to_json().find("\"binning\": \"fixed\""),
            std::string::npos);
  // The cell layout feeds the noncentrality, so the observations-needed
  // figures must respond to the knob (identical samples either way).
  EXPECT_NE(fixed.metric("obs99_with_stopwatch"),
            adaptive.metric("obs99_with_stopwatch"));
  EXPECT_NE(sturges.metric("obs99_with_stopwatch"),
            adaptive.metric("obs99_with_stopwatch"));
}

TEST(Fig4Interpacket, SubSecondRunTimeSimulatesTraffic) {
  // run_time_s is fractional: 0.5 s must simulate half a second of
  // traffic, not truncate to an empty run.
  const Result r = ScenarioRegistry::instance().run(
      "fig4_interpacket", /*seed=*/5, /*smoke=*/true, {{"run_time_s", "0.5"}});
  for (const std::string arm : {"stopwatch_victim", "stopwatch_clean",
                                "xen_victim", "xen_clean"}) {
    EXPECT_GT(r.metric("samples_" + arm), 0.0) << arm;
  }
}

TEST(DetectionBinningKnob, InvalidChoiceIsRejectedUpFront) {
  EXPECT_THROW(static_cast<void>(ScenarioRegistry::instance().run(
                   "fig4_interpacket", /*seed=*/5, /*smoke=*/true,
                   {{"binning", "scott"}})),
               ContractViolation);
}

TEST(DetectionBinningKnob, AllDetectionScenariosDeclareIt) {
  const auto& registry = ScenarioRegistry::instance();
  for (const std::string name :
       {"fig4_interpacket", "collab_attackers", "ablation_aggregation",
        "ablation_epoch_resync"}) {
    const Scenario* s = registry.find(name);
    ASSERT_NE(s, nullptr) << name;
    bool found = false;
    for (const ParamSpec& p : s->params) {
      if (p.name == "binning" && p.kind == ParamSpec::Kind::kEnum) {
        found = true;
        EXPECT_EQ(p.default_choice, "adaptive") << name;
      }
    }
    EXPECT_TRUE(found) << name;
  }
}

}  // namespace
}  // namespace stopwatch::experiment
