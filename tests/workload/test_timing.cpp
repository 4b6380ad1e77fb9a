#include "workload/timing.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace stopwatch::workload {
namespace {

TEST(Broadcaster, EmitsAtApproximateRate) {
  core::CloudConfig cfg;
  cfg.seed = 4;
  cfg.machine_count = 3;
  core::Cloud cloud(cfg);
  const core::VmHandle vm = cloud.add_vm(
      "probe", [] { return std::make_unique<AttackerProbeProgram>(); },
      {0, 1, 2});
  BackgroundBroadcaster bcast(cloud, cloud.vm_addr(vm), 80.0, 5);
  cloud.start();
  bcast.start();
  cloud.run_for(Duration::seconds(10));
  // 80 pkt/s for 10 s: Poisson bursts, allow generous slack.
  EXPECT_GT(bcast.packets_sent(), 500u);
  EXPECT_LT(bcast.packets_sent(), 1100u);
}

TEST(AttackerProbe, RecordsEveryDelivery) {
  core::CloudConfig cfg;
  cfg.seed = 6;
  cfg.machine_count = 3;
  core::Cloud cloud(cfg);
  const core::VmHandle vm = cloud.add_vm(
      "probe", [] { return std::make_unique<AttackerProbeProgram>(); },
      {0, 1, 2});
  BackgroundBroadcaster bcast(cloud, cloud.vm_addr(vm), 50.0, 7);
  cloud.start();
  bcast.start();
  cloud.run_for(Duration::seconds(5));
  cloud.halt_all();
  auto& probe = static_cast<AttackerProbeProgram&>(
      cloud.replica(vm, 0).program());
  // Everything sent early enough got delivered and observed.
  EXPECT_GT(probe.observations_ns().size(), 100u);
  EXPECT_EQ(probe.inter_arrival_ms().size(),
            probe.observations_ns().size() - 1);
  // Observations are monotone in virtual time.
  for (std::size_t i = 1; i < probe.observations_ns().size(); ++i) {
    EXPECT_GE(probe.observations_ns()[i], probe.observations_ns()[i - 1]);
  }
}

TEST(VictimServer, LoadsItsHost) {
  core::CloudConfig cfg;
  cfg.seed = 8;
  cfg.machine_count = 3;
  core::Cloud cloud(cfg);
  const NodeId sink = cloud.add_external_node([](const net::Packet&) {});
  VictimServerProgram::Config vc;
  vc.sink = sink;
  const core::VmHandle vm = cloud.add_vm(
      "victim", [vc] { return std::make_unique<VictimServerProgram>(vc); },
      {0, 1, 2});
  cloud.start();
  cloud.run_for(Duration::seconds(2));
  cloud.halt_all();
  // The victim's bursts keep its activity EMA well above idle.
  EXPECT_GT(cloud.replica(vm, 0).activity(), 0.3);
  // And it emits output traffic through the egress.
  EXPECT_GT(cloud.egress_stats(vm).packets_released, 100u);
  EXPECT_TRUE(cloud.replicas_deterministic(vm));
}

TEST(VictimServer, DeterministicAcrossReplicasDespiteDisk) {
  core::CloudConfig cfg;
  cfg.seed = 10;
  cfg.machine_count = 3;
  cfg.policy.stopwatch.delta_d = Duration::millis(30);
  core::Cloud cloud(cfg);
  const NodeId sink = cloud.add_external_node([](const net::Packet&) {});
  VictimServerProgram::Config vc;
  vc.sink = sink;
  vc.disk_probability = 0.2;
  const core::VmHandle vm = cloud.add_vm(
      "victim", [vc] { return std::make_unique<VictimServerProgram>(vc); },
      {0, 1, 2});
  cloud.start();
  cloud.run_for(Duration::seconds(3));
  cloud.halt_all();
  EXPECT_TRUE(cloud.replicas_deterministic(vm));
  EXPECT_EQ(cloud.egress_stats(vm).hash_mismatches, 0u);
}

}  // namespace
}  // namespace stopwatch::workload
