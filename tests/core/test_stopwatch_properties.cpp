// Property-style sweeps over the full StopWatch cloud: the invariants the
// paper's security argument rests on must hold across seeds, replica
// counts, offsets, and aggregation rules.
#include <gtest/gtest.h>

#include <memory>

#include "core/cloud.hpp"
#include "workload/timing.hpp"

namespace stopwatch::core {
namespace {

struct RunResult {
  bool deterministic{false};
  std::uint64_t divergences{0};
  std::size_t observations{0};
  std::vector<std::int64_t> obs_ns;
};

RunResult run_probe_cloud(CloudConfig cfg, int replicas_used,
                          Duration run_time = Duration::seconds(4)) {
  Cloud cloud(cfg);
  std::vector<int> machines;
  for (int i = 0; i < replicas_used; ++i) machines.push_back(i);
  const VmHandle vm = cloud.add_vm(
      "probe", [] { return std::make_unique<workload::AttackerProbeProgram>(); },
      machines);
  workload::BackgroundBroadcaster bcast(cloud, cloud.vm_addr(vm), 60.0,
                                        cfg.seed ^ 0xAA);
  cloud.start();
  bcast.start();
  cloud.run_for(run_time);
  cloud.halt_all();

  RunResult r;
  r.deterministic = cloud.replicas_deterministic(vm);
  r.divergences = cloud.total_divergences();
  auto& probe = static_cast<workload::AttackerProbeProgram&>(
      cloud.replica(vm, 0).program());
  r.obs_ns = probe.observations_ns();
  r.observations = r.obs_ns.size();

  // Replicas must agree on the full common prefix of observations.
  for (int rep = 1; rep < cloud.replicas_of(vm); ++rep) {
    auto& other = static_cast<workload::AttackerProbeProgram&>(
        cloud.replica(vm, rep).program());
    const auto& o = other.observations_ns();
    const std::size_t n = std::min(o.size(), r.obs_ns.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(o[i], r.obs_ns[i]) << "replica " << rep << " obs " << i;
    }
  }
  return r;
}

class SeedSweep : public ::testing::TestWithParam<int> {};

TEST_P(SeedSweep, DeterminismAndZeroDivergenceAcrossSeeds) {
  CloudConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(GetParam());
  cfg.machine_count = 3;
  const RunResult r = run_probe_cloud(cfg, 3);
  EXPECT_TRUE(r.deterministic);
  EXPECT_EQ(r.divergences, 0u);
  EXPECT_GT(r.observations, 50u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

class OffsetSweep : public ::testing::TestWithParam<int> {};

TEST_P(OffsetSweep, MachineClockOffsetsDoNotBreakAgreement) {
  CloudConfig cfg;
  cfg.seed = 77;
  cfg.machine_count = 3;
  cfg.clock_offset_spread = Duration::millis(GetParam());
  const RunResult r = run_probe_cloud(cfg, 3);
  EXPECT_TRUE(r.deterministic);
  EXPECT_EQ(r.divergences, 0u);
}

INSTANTIATE_TEST_SUITE_P(Spreads, OffsetSweep,
                         ::testing::Values(0, 10, 40, 200, 1000));

class AggregationSweep
    : public ::testing::TestWithParam<hypervisor::AggregationRule> {};

TEST_P(AggregationSweep, AllRulesPreserveDeterminism) {
  // Even the "wrong" aggregation rules (the ablation comparators) must
  // deliver identically at all replicas — they differ in *leakage*, not in
  // agreement.
  CloudConfig cfg;
  cfg.seed = 5;
  cfg.machine_count = 3;
  cfg.policy.stopwatch.aggregation = GetParam();
  cfg.policy.stopwatch.leader_machine = 1;
  // kMin adopts the earliest proposal, which may already have passed on
  // slower replicas (that is exactly why the paper rejects it); give it
  // headroom so the test isolates determinism.
  cfg.policy.stopwatch.delta_n = Duration::millis(25);
  const RunResult r = run_probe_cloud(cfg, 3);
  EXPECT_TRUE(r.deterministic);
  EXPECT_GT(r.observations, 50u);
}

INSTANTIATE_TEST_SUITE_P(Rules, AggregationSweep,
                         ::testing::Values(hypervisor::AggregationRule::kMedian,
                                           hypervisor::AggregationRule::kMin,
                                           hypervisor::AggregationRule::kMax,
                                           hypervisor::AggregationRule::kLeader));

TEST(StopWatchProperties, FiveReplicasAgreeLikeThree) {
  CloudConfig cfg;
  cfg.seed = 3;
  cfg.machine_count = 5;
  cfg.replica_count = 5;
  const RunResult r = run_probe_cloud(cfg, 5);
  EXPECT_TRUE(r.deterministic);
  EXPECT_EQ(r.divergences, 0u);
}

TEST(StopWatchProperties, EpochResyncKeepsAgreementOnCleanHosts) {
  CloudConfig cfg;
  cfg.seed = 11;
  cfg.machine_count = 3;
  cfg.policy.stopwatch.epoch_resync = true;
  cfg.policy.stopwatch.epoch_instr = 100'000'000;
  const RunResult r = run_probe_cloud(cfg, 3, Duration::seconds(5));
  EXPECT_TRUE(r.deterministic);
  EXPECT_EQ(r.divergences, 0u);
}

TEST(StopWatchProperties, ObservationsAreVirtualNotReal) {
  // The attacker's observations are in virtual time: with a large machine
  // clock offset, the virtual epoch (median of machine clocks) shifts all
  // observations, proving the guest never sees raw real time.
  CloudConfig small;
  small.seed = 21;
  small.machine_count = 3;
  small.clock_offset_spread = Duration::millis(1);
  CloudConfig big = small;
  big.clock_offset_spread = Duration::seconds(100);
  const RunResult a = run_probe_cloud(small, 3);
  const RunResult b = run_probe_cloud(big, 3);
  ASSERT_FALSE(a.obs_ns.empty());
  ASSERT_FALSE(b.obs_ns.empty());
  // The big-offset cloud's observations start ~tens of seconds later in
  // "virtual" terms even though the runs last 4 real seconds.
  EXPECT_LT(a.obs_ns.front(), Duration::seconds(5).ns);
  EXPECT_GT(b.obs_ns.front(), Duration::seconds(5).ns);
}

TEST(StopWatchProperties, HaltStopsExecution) {
  CloudConfig cfg;
  cfg.seed = 9;
  cfg.machine_count = 3;
  Cloud cloud(cfg);
  const VmHandle vm = cloud.add_vm(
      "probe", [] { return std::make_unique<workload::AttackerProbeProgram>(); },
      {0, 1, 2});
  cloud.start();
  cloud.run_for(Duration::millis(100));
  cloud.halt_all();
  const auto instr = cloud.replica(vm, 0).instr();
  cloud.run_for(Duration::millis(100));
  EXPECT_EQ(cloud.replica(vm, 0).instr(), instr);
}

}  // namespace
}  // namespace stopwatch::core
