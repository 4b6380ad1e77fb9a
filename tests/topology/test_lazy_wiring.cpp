// Cold registration and activation: a registered VM costs a placement
// row (machine indices, a 16-byte entry, a reserved address) until
// Cloud::activate wires it, and activation builds only the machine shards
// hosting the activated VMs.
#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cstddef>
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

/// Heap bytes in use (main and mmapped chunks, every arena), or 0 where
/// mallinfo2 is unavailable or reports nothing (sanitizer allocators).
std::size_t heap_in_use() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
#else
  return 0;
#endif
}

TEST(LazyWiring, ColdRegistryHoldsPlacementsOnly) {
  // 50k registrations: nothing wired, every VM still answers its
  // introspection queries from the cold record alone, and a cold VM costs
  // a placement row — no network node, name string or factory copy.
  CloudConfig cfg = lazy_config(17);
  cfg.machine_count = 64;
  cfg.shard_size = 16;
  Cloud cloud(cfg);
  constexpr int kVms = 50000;
  const auto triple = [](int i) {
    return std::vector<int>{i % 64, (i + 7) % 64, (i + 19) % 64};
  };
  std::vector<int> rows;
  for (int i = 0; i < kVms; ++i) {
    const std::vector<int> t = triple(i);
    rows.insert(rows.end(), t.begin(), t.end());
  }
  const std::size_t heap_before = heap_in_use();
  const std::vector<VmHandle> handles = cloud.add_vms(
      [] { return std::make_unique<EchoProgram>(); }, rows, 3);
  const std::size_t heap_after = heap_in_use();
  if (heap_before != 0 && heap_after > heap_before) {
    // The row itself is 12 + 16 + 4 bytes, the returned handle 4 more.
    EXPECT_LE((heap_after - heap_before) / kVms, 64u)
        << heap_after - heap_before << " heap bytes for " << kVms
        << " cold VMs";
  }
  ASSERT_EQ(handles.size(), static_cast<std::size_t>(kVms));
  ASSERT_EQ(cloud.vm_count(), static_cast<std::size_t>(kVms));
  EXPECT_EQ(cloud.materialized_vm_count(), 0u);
  EXPECT_EQ(cloud.machines().materialized_machines(), 0);
  for (int i = 0; i < kVms; ++i) {
    const VmHandle vm{static_cast<std::uint32_t>(i)};
    ASSERT_EQ(handles[static_cast<std::size_t>(i)].index, vm.index);
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

TEST(LazyWiring, BatchRegistrationMatchesOneByOne) {
  // add_vms is one add_vm per row with a shared factory: the same handles,
  // placements and addresses, and the driven VMs release the same egress
  // packets at the same instants. Rows are 4 wide; the first three count.
  const std::vector<int> rows = {0, 1, 2, 8, 3, 4, 5, 8, 6, 7, 8, 0,
                                 1, 4, 7, 2, 2, 5, 8, 1};
  constexpr std::size_t kWidth = 4;
  constexpr std::size_t kRows = 5;
  struct Registered {
    std::vector<std::uint32_t> handles;
    std::vector<int> machines;
    std::vector<std::uint32_t> addrs;
    std::vector<std::pair<std::uint32_t, std::int64_t>> releases;
  };
  const auto run = [&rows](bool batch) {
    Registered out;
    Cloud cloud(lazy_config());
    std::vector<VmHandle> handles;
    if (batch) {
      handles = cloud.add_vms([] { return std::make_unique<EchoProgram>(); },
                              rows, kWidth);
    } else {
      for (std::size_t i = 0; i < kRows; ++i) {
        const std::vector<int> row(rows.begin() + i * kWidth,
                                   rows.begin() + (i + 1) * kWidth);
        handles.push_back(cloud.add_vm(
            "", [] { return std::make_unique<EchoProgram>(); }, row));
      }
    }
    const NodeId client = cloud.add_external_node([](const net::Packet&) {});
    for (const VmHandle vm : handles) {
      out.handles.push_back(vm.index);
      const std::span<const int> m = cloud.vm_machines(vm);
      out.machines.insert(out.machines.end(), m.begin(), m.end());
      out.addrs.push_back(cloud.vm_addr(vm).value);
    }
    cloud.set_egress_tap(
        [&out](std::uint32_t vm, RealTime when, const net::Packet&) {
          out.releases.emplace_back(vm, when.ns);
        });
    cloud.activate({handles[1], handles[3]});
    cloud.start();
    for (int i = 0; i < 8; ++i) {
      const VmHandle vm = handles[i % 2 == 0 ? 1 : 3];
      cloud.simulator().schedule_at(
          RealTime::millis(15 * (i + 1)), [&cloud, client, vm, i] {
            net::Packet req;
            req.dst = cloud.vm_addr(vm);
            req.kind = net::PacketKind::kRequest;
            req.seq = static_cast<std::uint64_t>(i);
            req.size_bytes = 80;
            cloud.send_external(client, req);
          });
    }
    cloud.run_for(Duration::seconds(1));
    return out;
  };
  const Registered batch = run(true);
  const Registered single = run(false);
  EXPECT_EQ(batch.handles, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(batch.handles, single.handles);
  EXPECT_EQ(batch.machines.size(), kRows * 3);
  EXPECT_EQ(batch.machines, single.machines);
  EXPECT_EQ(batch.addrs, single.addrs);
  EXPECT_EQ(batch.releases.size(), 8u);
  EXPECT_EQ(batch.releases, single.releases);

  // A bad row stops the batch there and names the VM it would have been.
  Cloud cloud(lazy_config());
  const std::vector<int> bad = {0, 1, 2, 3, 4, 5, 6, 6, 7};
  try {
    static_cast<void>(cloud.add_vms(
        [] { return std::make_unique<EchoProgram>(); }, bad, 3));
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("VM 'vm2' places two replicas"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(cloud.vm_count(), 2u);
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
    EXPECT_TRUE(cloud.network().send(std::move(f)));
  }
  // The machine's own record receives all four frames; none is lost.
  EXPECT_TRUE(cloud.network().is_bound(machine));
  EXPECT_NO_THROW(cloud.run_for(Duration::seconds(1)));
  EXPECT_EQ(cloud.network().frames_dropped(), 0u);
  EXPECT_EQ(received, 0);
  EXPECT_EQ(cloud.replicas_of(vm), 0);
  EXPECT_EQ(cloud.materialized_vm_count(), 1u);
}

}  // namespace
}  // namespace stopwatch::core
