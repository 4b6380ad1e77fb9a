// The sharded machine table must be observably identical to a dense one:
// every machine's identity, clock offset, and RNG stream is a pure function
// of (seed, index), independent of shard size and of the order shards
// materialize in.
#include "topology/machine_table.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/contracts.hpp"

namespace stopwatch::topology {
namespace {

struct Fixture {
  explicit Fixture(int machines, int shard_size, std::uint64_t seed = 7)
      : table(kernel, plan, net,
              MachineTableConfig{machines, shard_size, seed,
                                 hypervisor::MachineConfig{},
                                 Duration::millis(40)},
              [this](int, const net::Frame&) { ++frames; }) {}

  sim::ShardedSimulator kernel{{}};
  sim::Simulator& sim = kernel.shard(0);
  ShardPlan plan;
  net::Network net{kernel, Rng(99)};
  int frames{0};
  MachineTable table;
};

TEST(MachineTable, ShardMathCoversAllMachines) {
  Fixture fx(101, 16);
  EXPECT_EQ(fx.table.machine_count(), 101);
  EXPECT_EQ(fx.table.shard_count(), 7);  // ceil(101 / 16)
  EXPECT_EQ(fx.table.shard_of(0), 0);
  EXPECT_EQ(fx.table.shard_of(15), 0);
  EXPECT_EQ(fx.table.shard_of(16), 1);
  EXPECT_EQ(fx.table.shard_of(100), 6);
  EXPECT_THROW(static_cast<void>(fx.table.shard_of(101)), ContractViolation);
}

TEST(MachineTable, ShardedLookupEquivalentToDenseTable) {
  // Same seed, different shard sizes (1 = fully dense): every machine must
  // come out identical — offsets, ids, and the first RNG draws.
  Fixture dense(40, 40);
  Fixture sharded(40, 7);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(dense.table.clock_offset(i).ns, sharded.table.clock_offset(i).ns)
        << i;
    auto& dm = dense.table.machine(i);
    auto& sm = sharded.table.machine(i);
    EXPECT_EQ(dm.id().value, sm.id().value);
    EXPECT_EQ(dm.clock_offset().ns, dense.table.clock_offset(i).ns) << i;
    EXPECT_EQ(sm.clock_offset().ns, sharded.table.clock_offset(i).ns) << i;
    EXPECT_EQ(dm.local_clock().ns, sm.local_clock().ns);
    // The per-machine RNG stream is derived from (seed, index), not from a
    // shared draw order: the first jittered Dom0 delays must agree.
    EXPECT_EQ(dm.vmm_processing_delay(0.0).ns,
              sm.vmm_processing_delay(0.0).ns)
        << i;
  }
}

TEST(MachineTable, MaterializationOrderDoesNotChangeMachines) {
  Fixture forward(30, 8);
  Fixture backward(30, 8);
  std::vector<std::int64_t> fwd, bwd;
  for (int i = 0; i < 30; ++i) {
    fwd.push_back(forward.table.machine(i).vmm_processing_delay(0.5).ns);
  }
  for (int i = 29; i >= 0; --i) {
    bwd.push_back(backward.table.machine(i).vmm_processing_delay(0.5).ns);
  }
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(fwd[static_cast<std::size_t>(i)],
              bwd[static_cast<std::size_t>(29 - i)])
        << i;
  }
}

TEST(MachineTable, TouchingOneMachineMaterializesOnlyItsShard) {
  Fixture fx(100, 10);
  EXPECT_EQ(fx.table.materialized_shards(), 0);
  EXPECT_EQ(fx.table.materialized_machines(), 0);
  static_cast<void>(fx.table.machine(42));
  EXPECT_EQ(fx.table.materialized_shards(), 1);
  EXPECT_EQ(fx.table.materialized_machines(), 10);
  static_cast<void>(fx.table.machine(40));  // same shard: nothing new
  EXPECT_EQ(fx.table.materialized_machines(), 10);
  // clock_offset stays computable without materializing anything.
  static_cast<void>(fx.table.clock_offset(99));
  EXPECT_EQ(fx.table.materialized_shards(), 1);
  static_cast<void>(fx.table.machine(39));  // the shard below
  EXPECT_EQ(fx.table.materialized_shards(), 2);
  EXPECT_EQ(fx.table.materialized_machines(), 20);
}

TEST(MachineTable, RaggedFinalShardMaterializes) {
  Fixture fx(23, 10);  // last shard holds 3 machines
  EXPECT_EQ(fx.table.shard_count(), 3);
  static_cast<void>(fx.table.machine(22));
  EXPECT_EQ(fx.table.materialized_machines(), 3);
  static_cast<void>(fx.table.machine(0));
  static_cast<void>(fx.table.machine(10));
  EXPECT_EQ(fx.table.materialized_machines(), 23);
  EXPECT_EQ(fx.table.materialized_shards(), 3);
}

TEST(MachineTable, MachineNodesReceiveFrames) {
  Fixture fx(8, 4);
  const NodeId n0 = fx.table.machine_node(0);
  const NodeId n7 = fx.table.machine_node(7);
  net::Frame f;
  f.src = n0;
  f.dst = n7;
  f.size_bytes = 64;
  fx.net.send(std::move(f));
  fx.sim.run();
  EXPECT_EQ(fx.frames, 1);
}

TEST(MachineTable, RejectsBadConfigWithClearMessage) {
  sim::ShardedSimulator kernel{{}};
  ShardPlan plan;
  net::Network net{kernel, Rng(1)};
  try {
    MachineTable bad(kernel, plan, net, MachineTableConfig{0, 8, 1, {}, {}},
                     [](int, const net::Frame&) {});
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("machine_count"), std::string::npos);
  }
  try {
    MachineTable bad(kernel, plan, net, MachineTableConfig{4, 0, 1, {}, {}},
                     [](int, const net::Frame&) {});
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("shard_size"), std::string::npos);
  }
}

}  // namespace
}  // namespace stopwatch::topology
