// Cold registration and activation: a registered VM costs one ingress
// address node and a cold record until Cloud::activate wires it, and
// activation builds only the machine shards hosting the activated VMs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/cloud.hpp"

namespace stopwatch::core {
namespace {

/// Echoes every request back to its sender.
class EchoProgram final : public vm::GuestProgram {
 public:
  void on_boot(vm::GuestApi&) override {}
  void on_timer_tick(vm::GuestApi&, std::uint64_t) override {}
  void on_packet(vm::GuestApi& api, const net::Packet& pkt) override {
    if (pkt.kind != net::PacketKind::kRequest) return;
    net::Packet reply;
    reply.dst = pkt.src;
    reply.kind = net::PacketKind::kData;
    reply.seq = pkt.seq;
    reply.size_bytes = 100;
    api.send_packet(reply);
  }
};

CloudConfig lazy_config(std::uint64_t seed = 11) {
  CloudConfig cfg;
  cfg.seed = seed;
  cfg.policy = PolicyKind::kStopWatch;
  cfg.machine_count = 9;
  cfg.shard_size = 4;
  return cfg;
}

TEST(LazyWiring, ActivationBuildsOnlyTheActivatedVmsShards) {
  Cloud cloud(lazy_config());
  const VmHandle a = cloud.add_vm(
      "a", [] { return std::make_unique<EchoProgram>(); }, {0, 1, 2});
  const VmHandle b = cloud.add_vm(
      "b", [] { return std::make_unique<EchoProgram>(); }, {3, 4, 5});
  const VmHandle untouched = cloud.add_vm(
      "untouched", [] { return std::make_unique<EchoProgram>(); }, {6, 7, 8});

  std::vector<std::uint64_t> replies;
  const NodeId client = cloud.add_external_node(
      [&](const net::Packet& pkt) { replies.push_back(pkt.seq); });

  // Registration wires nothing and builds no machine.
  EXPECT_EQ(cloud.materialized_vm_count(), 0u);
  EXPECT_EQ(cloud.machines().materialized_machines(), 0);
  cloud.activate({a});
  cloud.start();
  EXPECT_TRUE(cloud.vm_materialized(a));
  EXPECT_FALSE(cloud.vm_materialized(b));
  EXPECT_FALSE(cloud.vm_materialized(untouched));
  EXPECT_EQ(cloud.materialized_vm_count(), 1u);
  EXPECT_EQ(cloud.replicas_of(a), 3);
  EXPECT_EQ(cloud.replicas_of(b), 0);

  for (int i = 0; i < 10; ++i) {
    cloud.simulator().schedule_at(
        RealTime::millis(20 * (i + 1)), [&cloud, client, a, i] {
          net::Packet req;
          req.dst = cloud.vm_addr(a);
          req.kind = net::PacketKind::kRequest;
          req.seq = static_cast<std::uint64_t>(i);
          req.size_bytes = 80;
          cloud.send_external(client, req);
        });
  }
  cloud.run_for(Duration::seconds(2));
  ASSERT_EQ(replies.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(replies[i], i);
  EXPECT_EQ(cloud.egress_stats(a).packets_released, 10u);
  EXPECT_TRUE(cloud.replicas_deterministic(a));
  EXPECT_EQ(cloud.total_divergences(), 0u);

  // Only the shard hosting a's machines {0,1,2} materialized: shard 0 of
  // the size-4 sharding. The other VMs' machines stayed un-built.
  EXPECT_EQ(cloud.machines().materialized_machines(), 4);

  // Introspecting an unwired VM's replicas is a contract violation that
  // names the VM instead of an opaque index check.
  try {
    static_cast<void>(cloud.replica(untouched, 0));
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("untouched"), std::string::npos);
  }
}

TEST(LazyWiring, ActivationSetIsSortedAndDeduplicated) {
  // activate wires its set once per VM and in index order, whatever order
  // and repeats the caller passes: {b, a, b} releases exactly what {a, b}
  // does. b's machines sit in later machine-table shards than a's, so
  // wiring b first would allocate their network nodes (and the jitter
  // streams keyed by node id) first.
  const auto run = [](const bool shuffled) {
    std::vector<std::pair<std::uint32_t, std::int64_t>> releases;
    Cloud cloud(lazy_config());
    const VmHandle a = cloud.add_vm(
        "a", [] { return std::make_unique<EchoProgram>(); }, {0, 1, 2});
    const VmHandle b = cloud.add_vm(
        "b", [] { return std::make_unique<EchoProgram>(); }, {6, 7, 8});
    const NodeId client = cloud.add_external_node([](const net::Packet&) {});
    cloud.set_egress_tap(
        [&releases](std::uint32_t vm, RealTime when, const net::Packet&) {
          releases.emplace_back(vm, when.ns);
        });
    if (shuffled) {
      cloud.activate({b, a, b});
    } else {
      cloud.activate({a, b});
    }
    EXPECT_EQ(cloud.materialized_vm_count(), 2u);
    EXPECT_EQ(cloud.replicas_of(a), 3);
    EXPECT_EQ(cloud.replicas_of(b), 3);
    cloud.start();
    for (int i = 0; i < 10; ++i) {
      const VmHandle vm = i % 2 == 0 ? a : b;
      cloud.simulator().schedule_at(
          RealTime::millis(20 * (i + 1)), [&cloud, client, vm, i] {
            net::Packet req;
            req.dst = cloud.vm_addr(vm);
            req.kind = net::PacketKind::kRequest;
            req.seq = static_cast<std::uint64_t>(i);
            req.size_bytes = 80;
            cloud.send_external(client, req);
          });
    }
    cloud.run_for(Duration::seconds(1));
    return releases;
  };
  const auto shuffled = run(true);
  EXPECT_EQ(shuffled.size(), 10u);
  EXPECT_EQ(shuffled, run(false));
}

TEST(LazyWiring, ColdRegistryHoldsPlacementsOnly) {
  // 50k registrations: nothing wired, and every VM still answers its
  // introspection queries from the cold record alone.
  CloudConfig cfg = lazy_config(17);
  cfg.machine_count = 64;
  cfg.shard_size = 16;
  Cloud cloud(cfg);
  constexpr int kVms = 50000;
  const auto triple = [](int i) {
    return std::vector<int>{i % 64, (i + 7) % 64, (i + 19) % 64};
  };
  for (int i = 0; i < kVms; ++i) {
    cloud.add_vm("vm" + std::to_string(i),
                 [] { return std::make_unique<EchoProgram>(); }, triple(i));
  }
  ASSERT_EQ(cloud.vm_count(), static_cast<std::size_t>(kVms));
  EXPECT_EQ(cloud.materialized_vm_count(), 0u);
  EXPECT_EQ(cloud.machines().materialized_machines(), 0);
  for (int i = 0; i < kVms; ++i) {
    const VmHandle vm{static_cast<std::uint32_t>(i)};
    ASSERT_EQ(cloud.replicas_of(vm), 0) << "vm " << i;
    ASSERT_FALSE(cloud.vm_materialized(vm));
    ASSERT_EQ(cloud.egress_stats(vm).packets_released, 0u);
    ASSERT_EQ(cloud.egress_stats(vm).hash_mismatches, 0u);
    ASSERT_TRUE(cloud.replicas_deterministic(vm));
    const std::span<const int> machines = cloud.vm_machines(vm);
    const std::vector<int> expected = triple(i);
    ASSERT_TRUE(std::equal(machines.begin(), machines.end(), expected.begin(),
                           expected.end()))
        << "vm " << i;
  }
  EXPECT_EQ(cloud.total_divergences(), 0u);
}

TEST(LazyWiring, BaselineDirectFrameToANonVmNodeIsIgnored) {
  // A direct guest packet reaching a machine is routed by its destination
  // address. Addresses that are not VM ingress nodes (the egress, an
  // external endpoint, an id past every node) and a VM outside the
  // activation set all drop the packet without throwing or wiring anything.
  CloudConfig cfg = lazy_config(3);
  cfg.policy = PolicyKind::kBaselineXen;
  Cloud cloud(cfg);
  const VmHandle vm = cloud.add_vm(
      "echo", [] { return std::make_unique<EchoProgram>(); }, {2});
  const VmHandle active = cloud.add_vm(
      "active", [] { return std::make_unique<EchoProgram>(); }, {3});
  int received = 0;
  const NodeId client =
      cloud.add_external_node([&](const net::Packet&) { ++received; });
  cloud.activate({active});
  cloud.start();
  const NodeId machine = cloud.machines().machine_node(2);
  for (const NodeId dst : {cloud.egress_node(), client, NodeId{1u << 20},
                           cloud.vm_addr(vm)}) {
    net::Packet pkt;
    pkt.src = client;
    pkt.dst = dst;
    pkt.kind = net::PacketKind::kRequest;
    pkt.size_bytes = 80;
    net::Frame f;
    f.src = client;
    f.dst = machine;
    f.size_bytes = pkt.size_bytes;
    f.payload = net::GuestPacketPayload{pkt};
    cloud.network().send(std::move(f));
  }
  EXPECT_NO_THROW(cloud.run_for(Duration::seconds(1)));
  EXPECT_EQ(cloud.network().stats(machine).frames_received, 4u);
  EXPECT_EQ(received, 0);
  EXPECT_EQ(cloud.replicas_of(vm), 0);
  EXPECT_EQ(cloud.materialized_vm_count(), 1u);
}

}  // namespace
}  // namespace stopwatch::core
