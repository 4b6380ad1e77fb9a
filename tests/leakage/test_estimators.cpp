// Closed-form checks of the leakage estimators: plug-in / Miller-Madow
// mutual information against hand-computable channels, Blahut-Arimoto
// against textbook capacities (deterministic channel -> log2 |inputs|,
// binary symmetric channel -> 1 - H2(p), useless channel -> 0), and the
// binning rules' layout guarantees.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "leakage/capacity.hpp"
#include "leakage/estimators.hpp"
#include "leakage/observation_log.hpp"

namespace stopwatch::leakage {
namespace {

JointDistribution make_joint(std::vector<std::vector<double>> p,
                             std::uint64_t n) {
  JointDistribution joint;
  joint.p = std::move(p);
  for (std::size_t i = 0; i < joint.p.size(); ++i) {
    joint.class_labels.push_back(static_cast<int>(i));
  }
  joint.sample_count = n;
  return joint;
}

TEST(MutualInformation, IndependentJointHasZeroBits) {
  // p(c, t) = p(c) p(t): knowing the cell says nothing about the class.
  const JointDistribution joint =
      make_joint({{0.125, 0.125, 0.25}, {0.125, 0.125, 0.25}}, 1000);
  EXPECT_NEAR(mutual_information_plugin(joint), 0.0, 1e-12);
}

TEST(MutualInformation, DeterministicChannelLeaksClassEntropy) {
  // Each class maps to its own cell: I = H(C) = log2 4.
  const JointDistribution joint = make_joint({{0.25, 0, 0, 0},
                                              {0, 0.25, 0, 0},
                                              {0, 0, 0.25, 0},
                                              {0, 0, 0, 0.25}},
                                             4000);
  EXPECT_NEAR(mutual_information_plugin(joint), 2.0, 1e-12);
}

TEST(MutualInformation, BinarySymmetricJointMatchesClosedForm) {
  // Uniform input through BSC(p): I = 1 - H2(p).
  const double p = 0.11;
  const JointDistribution joint = make_joint(
      {{(1 - p) / 2, p / 2}, {p / 2, (1 - p) / 2}}, 10000);
  EXPECT_NEAR(mutual_information_plugin(joint), 1.0 - binary_entropy_bits(p),
              1e-12);
}

TEST(MutualInformation, MillerMadowShrinksIndependentNoiseBias) {
  // Independent samples: true MI is 0; the plug-in estimate is biased up
  // by finite sampling, and Miller-Madow must land closer to the truth.
  Rng rng(7);
  ObservationLog log(ObservationLogConfig{3, 1024});
  for (int i = 0; i < 400; ++i) {
    for (int c = 0; c < 2; ++c) log.record(c, rng.uniform(0.0, 1.0));
  }
  const auto edges =
      make_bin_edges(log.pooled_samples(), BinningMode::kFixed, 16);
  const JointDistribution joint = joint_from_log(log, edges);
  const double plugin = mutual_information_plugin(joint);
  const double corrected = mutual_information_miller_madow(joint);
  EXPECT_GT(plugin, 0.0);
  EXPECT_LT(corrected, plugin);
  EXPECT_LT(corrected, 0.02);
}

TEST(MutualInformation, MillerMadowNeverExceedsMarginalEntropies) {
  // A deterministic 2-class channel: the +1/(2N ln 2) correction must not
  // push the estimate past min(H(C), H(T)) = 1 bit.
  ObservationLog log(ObservationLogConfig{1, 64});
  for (int i = 0; i < 20; ++i) {
    log.record(0, 1.0 + 0.001 * i);
    log.record(1, 5.0 + 0.001 * i);
  }
  const auto edges =
      make_bin_edges(log.pooled_samples(), BinningMode::kFixed, 8);
  const double mi = mutual_information_miller_madow(joint_from_log(log, edges));
  EXPECT_LE(mi, 1.0);
  EXPECT_GT(mi, 0.9);
}

TEST(Capacity, DeterministicChannelReachesLogInputs) {
  // Identity channel over k inputs: C = log2 k, uniform optimal prior.
  const CapacityResult r = blahut_arimoto(
      {{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.capacity_bits, 2.0, 1e-6);
  for (const double p : r.optimal_input) EXPECT_NEAR(p, 0.25, 1e-6);
}

TEST(Capacity, BinarySymmetricChannelMatchesClosedForm) {
  for (const double p : {0.05, 0.11, 0.25, 0.45}) {
    const CapacityResult r = blahut_arimoto({{1 - p, p}, {p, 1 - p}});
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.capacity_bits, 1.0 - binary_entropy_bits(p), 1e-6) << p;
  }
}

TEST(Capacity, IdenticalRowsCarryNothing) {
  const CapacityResult r = blahut_arimoto(
      {{0.3, 0.5, 0.2}, {0.3, 0.5, 0.2}, {0.3, 0.5, 0.2}});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.capacity_bits, 0.0, 1e-9);
}

TEST(Capacity, ZChannelBeatsUniformPrior) {
  // Z-channel with crossover 0.5: C = log2(1 + (1-h(0.5)/1)... known value
  // log2(1 + 0.5 * 0.5^(0.5/0.5)) = log2(1.25); the optimal prior is
  // biased toward the noiseless input, so capacity exceeds I(uniform).
  const std::vector<std::vector<double>> channel = {{1.0, 0.0}, {0.5, 0.5}};
  const CapacityResult r = blahut_arimoto(channel);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.capacity_bits, std::log2(1.25), 1e-6);
  const JointDistribution uniform = make_joint(
      {{0.5, 0.0}, {0.25, 0.25}}, 1000);
  EXPECT_GT(r.capacity_bits, mutual_information_plugin(uniform));
}

TEST(Capacity, RejectsNonStochasticRows) {
  EXPECT_THROW(static_cast<void>(blahut_arimoto({{0.9, 0.2}, {0.5, 0.5}})),
               ContractViolation);
  EXPECT_THROW(static_cast<void>(blahut_arimoto({{1.0, 0.0}})),
               ContractViolation);
}

TEST(Binning, SturgesRuleCounts) {
  EXPECT_EQ(sturges_bin_count(1), 2);
  EXPECT_EQ(sturges_bin_count(2), 2);
  EXPECT_EQ(sturges_bin_count(3), 3);
  EXPECT_EQ(sturges_bin_count(64), 7);
  EXPECT_EQ(sturges_bin_count(100), 8);
  EXPECT_EQ(sturges_bin_count(1000), 11);
}

TEST(Binning, ModesProduceCoveringMonotoneEdges) {
  Rng rng(11);
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i) samples.push_back(rng.exponential(1.0));
  for (const BinningMode mode :
       {BinningMode::kFixed, BinningMode::kAdaptive, BinningMode::kSturges}) {
    const auto edges = make_bin_edges(samples, mode, 12);
    const std::size_t expected =
        mode == BinningMode::kSturges
            ? static_cast<std::size_t>(sturges_bin_count(samples.size())) + 1
            : 13u;
    EXPECT_EQ(edges.size(), expected);
    for (std::size_t i = 1; i < edges.size(); ++i) {
      EXPECT_LT(edges[i - 1], edges[i]);
    }
    for (const double s : samples) {
      const int cell = bin_index(edges, s);
      EXPECT_GE(cell, 0);
      EXPECT_LT(cell, static_cast<int>(edges.size()) - 1);
      EXPECT_GE(s, edges[static_cast<std::size_t>(cell)]);
      EXPECT_LT(s, edges[static_cast<std::size_t>(cell) + 1]);
    }
  }
}

TEST(Binning, AdaptiveEdgesEqualizePooledMass) {
  Rng rng(5);
  std::vector<double> samples;
  for (int i = 0; i < 4000; ++i) samples.push_back(rng.exponential(0.5));
  const int bins = 10;
  const auto edges = make_bin_edges(samples, BinningMode::kAdaptive, bins);
  std::vector<int> counts(bins, 0);
  for (const double s : samples) {
    ++counts[static_cast<std::size_t>(bin_index(edges, s))];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), 400.0, 40.0);
  }
}

TEST(Binning, ChoiceMappingMatchesScenarioKnob) {
  EXPECT_EQ(binning_mode_from_choice("fixed"), BinningMode::kFixed);
  EXPECT_EQ(binning_mode_from_choice("adaptive"), BinningMode::kAdaptive);
  EXPECT_EQ(binning_mode_from_choice("sturges"), BinningMode::kSturges);
  EXPECT_THROW(static_cast<void>(binning_mode_from_choice("scott")),
               ContractViolation);
}

}  // namespace
}  // namespace stopwatch::leakage
