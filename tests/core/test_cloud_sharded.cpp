// Shard-parallel Cloud execution: the sim_shards knob, the activation-set
// contract, and end-to-end equivalence of a sharded cloud against the
// sequential run of the same seed.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "core/cloud.hpp"
#include "topology/shard_plan.hpp"

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

/// Addresses a packet to `peer` on every PIT tick: guest output bound for
/// another VM rather than for an external endpoint.
class PeerSenderProgram final : public vm::GuestProgram {
 public:
  explicit PeerSenderProgram(NodeId peer) : peer_(peer) {}
  void on_boot(vm::GuestApi&) override {}
  void on_timer_tick(vm::GuestApi& api, std::uint64_t tick) override {
    net::Packet pkt;
    pkt.dst = peer_;
    pkt.kind = net::PacketKind::kData;
    pkt.seq = tick;
    pkt.size_bytes = 80;
    api.send_packet(pkt);
  }
  void on_packet(vm::GuestApi&, const net::Packet&) override {}

 private:
  NodeId peer_;
};

CloudConfig sharded_config(int shards, std::uint64_t seed = 42) {
  CloudConfig cfg;
  cfg.seed = seed;
  cfg.policy = PolicyKind::kStopWatch;
  cfg.machine_count = 9;
  cfg.sim_shards = shards;
  return cfg;
}

/// Builds a 3-VM cloud on disjoint machine triples, drives each VM with
/// `requests` echo requests, and returns (reply src addr, arrival ns)
/// pairs in arrival order. Without `explicit_activation`, start()
/// activates every VM.
std::vector<std::pair<std::uint32_t, std::int64_t>> run_echo_cloud(
    const CloudConfig& cfg, int requests, bool explicit_activation = true) {
  Cloud cloud(cfg);
  std::vector<VmHandle> vms;
  for (int v = 0; v < 3; ++v) {
    vms.push_back(cloud.add_vm(
        "echo" + std::to_string(v),
        [] { return std::make_unique<EchoProgram>(); },
        {3 * v, 3 * v + 1, 3 * v + 2}));
  }
  std::vector<std::pair<std::uint32_t, std::int64_t>> replies;
  const NodeId client =
      cloud.add_external_node([&replies, &cloud](const net::Packet& pkt) {
        replies.emplace_back(pkt.src.value, cloud.simulator().now().ns);
      });
  if (explicit_activation) cloud.activate(vms);
  cloud.start();
  for (int v = 0; v < 3; ++v) {
    for (int i = 0; i < requests; ++i) {
      const VmHandle vm = vms[static_cast<std::size_t>(v)];
      const std::uint64_t seq = static_cast<std::uint64_t>(i);
      cloud.simulator().schedule_at(
          RealTime::nanos(1'000'000 + 7'000'000 * i + 1'000 * v),
          [&cloud, client, vm, seq] {
            net::Packet req;
            req.dst = cloud.vm_addr(vm);
            req.kind = net::PacketKind::kRequest;
            req.seq = seq;
            req.size_bytes = 80;
            cloud.send_external(client, req);
          });
    }
  }
  cloud.run_for(Duration::millis(7 * requests + 100));
  cloud.halt_all();
  return replies;
}

TEST(CloudSharded, FourShardsReproduceTheSequentialRunExactly) {
  const auto sequential = run_echo_cloud(sharded_config(1), 6);
  ASSERT_FALSE(sequential.empty());
  EXPECT_EQ(sequential, run_echo_cloud(sharded_config(4), 6));
  // start() activating every VM takes the same path as activate().
  EXPECT_EQ(sequential, run_echo_cloud(sharded_config(4), 6, false));
  EXPECT_EQ(sequential, run_echo_cloud(sharded_config(1), 6, false));
}

TEST(CloudSharded, PerCoreEventCountersSumToTheTotal) {
  for (const int shards : {1, 4}) {
    Cloud cloud(sharded_config(shards));
    for (int v = 0; v < 3; ++v) {
      cloud.add_vm(
          "echo" + std::to_string(v),
          [] { return std::make_unique<EchoProgram>(); },
          {3 * v, 3 * v + 1, 3 * v + 2});
    }
    cloud.start();
    cloud.run_for(Duration::millis(30));
    std::map<std::string, std::uint64_t> counters;
    for (const auto& [name, value] : cloud.observability().counters) {
      counters[name] = value;
    }
    std::uint64_t per_core = 0;
    int cores = 0;
    for (const auto& [name, value] : counters) {
      if (name.starts_with("sharded.core")) {
        per_core += value;
        ++cores;
      }
    }
    // One counter per core, and only when there is more than one core.
    EXPECT_EQ(cores, shards > 1 ? shards : 0);
    if (shards > 1) {
      EXPECT_EQ(per_core, counters.at("sim.events_executed"));
      EXPECT_GT(counters.at("sharded.core0.events_executed"), 0u);
    }
  }
}

TEST(CloudSharded, RepeatedShardedRunsAreIdentical) {
  const auto a = run_echo_cloud(sharded_config(3), 4);
  const auto b = run_echo_cloud(sharded_config(3), 4);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(CloudSharded, TrafficOutsideTheActivationSetThrows) {
  for (const int shards : {1, 2}) {
    Cloud cloud(sharded_config(shards));
    const VmHandle active = cloud.add_vm(
        "active", [] { return std::make_unique<EchoProgram>(); }, {0, 1, 2});
    const VmHandle dormant = cloud.add_vm(
        "dormant", [] { return std::make_unique<EchoProgram>(); }, {3, 4, 5});
    const NodeId client = cloud.add_external_node([](const net::Packet&) {});
    cloud.activate({active});
    cloud.start();
    // Only activation wires a VM, so a frame reaching the dormant VM's
    // ingress throws, naming it; the sharded kernel rethrows on the
    // driving thread.
    net::Packet req;
    req.dst = cloud.vm_addr(dormant);
    req.kind = net::PacketKind::kRequest;
    req.seq = 1;
    req.size_bytes = 80;
    cloud.send_external(client, req);
    try {
      cloud.run_for(Duration::millis(50));
      ADD_FAILURE() << "traffic to an unwired VM was not rejected, shards "
                    << shards;
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("dormant"), std::string::npos)
          << e.what();
    }
  }
}

TEST(CloudSharded, MachineTouchedBeforeActivationOnlyAllowedOnOneCore) {
  // A scenario may load a machine before start(); with one core that
  // machine already sits where the plan puts it, with more it may not.
  for (const int shards : {1, 2}) {
    Cloud cloud(sharded_config(shards));
    const VmHandle vm = cloud.add_vm(
        "echo", [] { return std::make_unique<EchoProgram>(); }, {0, 1, 2});
    cloud.machine(0).set_extra_load(0.5);
    if (shards == 1) {
      cloud.activate({vm});
      EXPECT_EQ(cloud.replicas_of(vm), 3);
      continue;
    }
    try {
      cloud.activate({vm});
      ADD_FAILURE() << "activation after a machine materialized";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "must run before any machine materializes"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CloudSharded, GuestTrafficBetweenWorkerShardsNamesTheFallback) {
  // The declared lookahead matrix has no worker <-> worker floor, so guest
  // output addressed to a VM on another worker shard can land behind the
  // destination's granted window. The run must fail loudly and name the
  // sequential fallback instead of reordering.
  CloudConfig cfg = sharded_config(3);
  cfg.policy = PolicyKind::kBaselineXen;
  Cloud cloud(cfg);
  const VmHandle b = cloud.add_vm(
      "b", [] { return std::make_unique<EchoProgram>(); }, {1});
  const NodeId b_addr = cloud.vm_addr(b);
  const VmHandle a = cloud.add_vm(
      "a", [b_addr] { return std::make_unique<PeerSenderProgram>(b_addr); },
      {0});
  cloud.activate({a, b});
  const auto& plan = cloud.shard_plan();
  ASSERT_NE(plan.shard_of_machine(0), plan.shard_of_machine(1));
  ASSERT_NE(plan.shard_of_machine(1), plan.egress_shard());
  cloud.start();
  try {
    cloud.run_for(Duration::millis(50));
    ADD_FAILURE() << "cross-worker guest traffic was not rejected";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("sim_shards=1"), std::string::npos)
        << e.what();
  }
}

TEST(CloudSharded, TunnelingPolicyTapAllowedAcrossShards) {
  // StopWatch tunnels guest output through the egress gate, so the tap
  // fires only on the egress owner core — single-writer, even sharded.
  Cloud cloud(sharded_config(2));
  const VmHandle vm = cloud.add_vm(
      "echo", [] { return std::make_unique<EchoProgram>(); }, {0, 1, 2});
  cloud.activate({vm});
  cloud.set_egress_tap([](std::uint32_t, RealTime, const net::Packet&) {});
  EXPECT_TRUE(cloud.has_egress_tap());
}

TEST(CloudSharded, NonTunnelingTapRejectedWhenVmsSpanShards) {
  // Baseline Xen emits output from the replica send path — with active
  // VMs on two shards the tap would fire from two worker threads. (Three
  // shards: the last one hosts only egress and the clients.)
  CloudConfig cfg = sharded_config(3);
  cfg.policy = PolicyKind::kBaselineXen;
  Cloud cloud(cfg);
  const VmHandle a = cloud.add_vm(
      "a", [] { return std::make_unique<EchoProgram>(); }, {0});
  const VmHandle b = cloud.add_vm(
      "b", [] { return std::make_unique<EchoProgram>(); }, {1});
  cloud.activate({a, b});
  EXPECT_THROW(
      cloud.set_egress_tap([](std::uint32_t, RealTime, const net::Packet&) {}),
      ContractViolation);
}

TEST(CloudSharded, NonTunnelingTapPreinstalledRejectedAtActivation) {
  CloudConfig cfg = sharded_config(3);
  cfg.policy = PolicyKind::kBaselineXen;
  Cloud cloud(cfg);
  cloud.set_egress_tap([](std::uint32_t, RealTime, const net::Packet&) {});
  const VmHandle a = cloud.add_vm(
      "a", [] { return std::make_unique<EchoProgram>(); }, {0});
  const VmHandle b = cloud.add_vm(
      "b", [] { return std::make_unique<EchoProgram>(); }, {1});
  EXPECT_THROW(cloud.activate({a, b}), ContractViolation);
}

TEST(CloudSharded, NonTunnelingTapAllowedWhenActiveSetSharesAShard) {
  // One active VM -> one owner shard -> the replica send path is a single
  // writer even though shard_count > 1.
  CloudConfig cfg = sharded_config(2);
  cfg.policy = PolicyKind::kBaselineXen;
  Cloud cloud(cfg);
  const VmHandle a = cloud.add_vm(
      "a", [] { return std::make_unique<EchoProgram>(); }, {0});
  cloud.activate({a});
  cloud.set_egress_tap([](std::uint32_t, RealTime, const net::Packet&) {});
  EXPECT_TRUE(cloud.has_egress_tap());
}

TEST(CloudSharded, EgressAndExternalsLeaveCoreZero) {
  Cloud cloud(sharded_config(2));
  const NodeId client = cloud.add_external_node([](const net::Packet&) {});
  const VmHandle vm = cloud.add_vm(
      "echo", [] { return std::make_unique<EchoProgram>(); }, {0, 1, 2});
  cloud.activate({vm});
  const int egress = cloud.shard_plan().egress_shard();
  EXPECT_GT(egress, 0);  // the single component fills shard 0
  sim::Simulator* const egress_core = &cloud.sharded().shard(egress);
  EXPECT_EQ(&cloud.network().simulator_for(cloud.egress_node()), egress_core);
  EXPECT_EQ(&cloud.network().simulator_for(client), egress_core);
  // The driver core follows: external scheduling stays on the owner core.
  EXPECT_EQ(&cloud.simulator(), egress_core);
  // Externals registered after activation land there directly too.
  const NodeId late = cloud.add_external_node([](const net::Packet&) {});
  EXPECT_EQ(&cloud.network().simulator_for(late), egress_core);
}

TEST(CloudSharded, PlanKeepsGuestComponentsOffTheEgressShard) {
  // Six disjoint machine triples plus two components that share a
  // machine: seven components over 24 machines.
  std::vector<std::vector<int>> groups;
  for (int v = 0; v < 6; ++v) groups.push_back({3 * v, 3 * v + 1, 3 * v + 2});
  groups.push_back({18, 19, 20});
  groups.push_back({20, 21, 22});
  for (const int shards : {2, 4}) {
    const auto plan = topology::ShardPlan::build(shards, 24, groups);
    EXPECT_EQ(plan.egress_shard(), shards - 1) << "shards " << shards;
    EXPECT_EQ(plan.component_count(), 7);
    for (const auto& group : groups) {
      for (const int m : group) {
        EXPECT_NE(plan.shard_of_machine(m), plan.egress_shard())
            << "machine " << m << ", shards " << shards;
      }
    }
    EXPECT_EQ(plan.shard_loads()[static_cast<std::size_t>(shards - 1)], 0);
  }
  // One shard: everything, egress included, shares core 0.
  EXPECT_EQ(topology::ShardPlan::build(1, 24, groups).egress_shard(), 0);
}

TEST(CloudSharded, RejectsNonPositiveShardCount) {
  CloudConfig cfg = sharded_config(0);
  EXPECT_THROW(Cloud{cfg}, ContractViolation);
}

}  // namespace
}  // namespace stopwatch::core
