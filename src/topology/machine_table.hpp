// Sharded machine table — the cloud-scale substrate under core::Cloud.
//
// A placement-scale cloud (n = 501 machines, Θ(n²) guest VMs, paper
// Sec. VIII) cannot afford to construct every hypervisor::Machine and its
// network node up front when only a sampled subset of guests ever runs.
// The table groups machines into fixed-size shards and materializes a
// shard — machines plus their network nodes, in one pass — the first time
// any machine in it is touched. Everything a machine is built from (its
// RNG stream, its clock offset) is a pure function of (seed, index), so a
// sharded table is observably identical to a dense one regardless of the
// order shards materialize in. Each machine is built on the simulator
// core its ShardPlan assigns it, and that core's shard owns its network
// node; the plan is read at materialization, so core::Cloud can rebuild
// it at activation, before any machine is touched.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "hypervisor/machine.hpp"
#include "net/network.hpp"
#include "sim/sharded.hpp"
#include "topology/shard_plan.hpp"

namespace stopwatch::topology {

struct MachineTableConfig {
  int machine_count{1};
  /// Machines per shard; the materialization granule.
  int shard_size{64};
  std::uint64_t seed{1};
  hypervisor::MachineConfig machine_template{};
  /// Machine clock offsets drawn uniformly from [0, spread) per machine.
  Duration clock_offset_spread{};
};

class MachineTable {
 public:
  /// Invoked on every frame arriving at a machine's network node.
  using FrameHandler = std::function<void(int machine, const net::Frame&)>;

  /// `kernel`, `plan` and `net` must outlive the table.
  MachineTable(sim::ShardedSimulator& kernel, const ShardPlan& plan,
               net::Network& net, MachineTableConfig cfg,
               FrameHandler on_frame);

  MachineTable(const MachineTable&) = delete;
  MachineTable& operator=(const MachineTable&) = delete;

  [[nodiscard]] int machine_count() const { return cfg_.machine_count; }
  [[nodiscard]] int shard_size() const { return cfg_.shard_size; }
  [[nodiscard]] int shard_count() const {
    return static_cast<int>(shards_.size());
  }
  [[nodiscard]] int shard_of(int machine) const;

  /// Machine `i`, materializing its shard on first access.
  [[nodiscard]] hypervisor::Machine& machine(int i);
  /// Machine `i`'s network node, materializing its shard on first access.
  [[nodiscard]] NodeId machine_node(int i);

  /// Clock offset of machine `i`: a pure function of (seed, i), computable
  /// without materializing anything (and asserted equal to the materialized
  /// machine's configured offset).
  [[nodiscard]] Duration clock_offset(int i) const;

  [[nodiscard]] int materialized_shards() const { return materialized_shards_; }
  [[nodiscard]] int materialized_machines() const {
    return materialized_machines_;
  }

 private:
  struct Slot {
    std::unique_ptr<hypervisor::Machine> machine;
    NodeId node{};
  };
  struct Shard {
    bool materialized{false};
    std::vector<Slot> slots;  // sized on materialization
  };

  [[nodiscard]] int machines_in_shard(int shard) const;
  void materialize_shard(int shard);
  [[nodiscard]] Slot& slot(int machine);

  sim::ShardedSimulator* kernel_;
  const ShardPlan* plan_;
  net::Network* net_;
  MachineTableConfig cfg_;
  FrameHandler on_frame_;
  std::vector<Shard> shards_;
  int materialized_shards_{0};
  int materialized_machines_{0};
};

}  // namespace stopwatch::topology
