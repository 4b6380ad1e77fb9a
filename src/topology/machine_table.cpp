#include "topology/machine_table.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace stopwatch::topology {

namespace {

/// Stream tags keeping per-machine derivations independent of each other
/// and of every other consumer of the experiment seed.
constexpr std::uint64_t kMachineRngTag = 0x51AB1E5ULL;
constexpr std::uint64_t kClockOffsetTag = 0xC10C0FF5ULL;

}  // namespace

MachineTable::MachineTable(sim::ShardedSimulator& kernel,
                           const ShardPlan& plan, net::Network& net,
                           MachineTableConfig cfg, FrameHandler on_frame)
    : kernel_(&kernel),
      plan_(&plan),
      net_(&net),
      cfg_(cfg),
      on_frame_(std::move(on_frame)) {
  SW_EXPECTS_MSG(cfg_.machine_count >= 1,
                 "MachineTableConfig.machine_count must be >= 1 (got " +
                     std::to_string(cfg_.machine_count) + ")");
  SW_EXPECTS_MSG(cfg_.shard_size >= 1,
                 "MachineTableConfig.shard_size must be >= 1 (got " +
                     std::to_string(cfg_.shard_size) + ")");
  SW_EXPECTS(on_frame_ != nullptr);
  const int shards =
      (cfg_.machine_count + cfg_.shard_size - 1) / cfg_.shard_size;
  shards_.resize(static_cast<std::size_t>(shards));
}

int MachineTable::shard_of(int machine) const {
  SW_EXPECTS(machine >= 0 && machine < cfg_.machine_count);
  return machine / cfg_.shard_size;
}

int MachineTable::machines_in_shard(int shard) const {
  const int begin = shard * cfg_.shard_size;
  const int end = std::min(begin + cfg_.shard_size, cfg_.machine_count);
  return end - begin;
}

Duration MachineTable::clock_offset(int i) const {
  SW_EXPECTS(i >= 0 && i < cfg_.machine_count);
  if (cfg_.clock_offset_spread.ns <= 0) return Duration{};
  const std::uint64_t tag = kClockOffsetTag + static_cast<std::uint64_t>(i);
  Rng rng(SplitMix64(cfg_.seed ^ tag).next());
  return Duration{rng.uniform_int(0, cfg_.clock_offset_spread.ns - 1)};
}

void MachineTable::materialize_shard(int shard) {
  Shard& s = shards_[static_cast<std::size_t>(shard)];
  SW_ASSERT(!s.materialized);
  const int begin = shard * cfg_.shard_size;
  const int count = machines_in_shard(shard);
  s.slots.resize(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    const int idx = begin + k;
    const std::uint64_t tag =
        kMachineRngTag + static_cast<std::uint64_t>(idx);
    const std::uint64_t rng_seed = SplitMix64(cfg_.seed ^ tag).next();
    Slot& sl = s.slots[static_cast<std::size_t>(k)];
    // The plan picks the machine's event core and its network node's
    // owner; the machine itself stays a pure function of (seed, index).
    const int owner = plan_->shard_of_machine(idx);
    sl.machine = std::make_unique<hypervisor::Machine>(
        MachineId{static_cast<std::uint32_t>(idx)}, kernel_->shard(owner),
        cfg_.machine_template, clock_offset(idx), Rng(rng_seed));
    sl.node = net_->add_node(
        net::node_key(net::NodeRole::kMachine, static_cast<std::uint32_t>(idx)),
        [this, idx](const net::Frame& f) { on_frame_(idx, f); });
    net_->set_node_owner(sl.node, owner);
  }
  s.materialized = true;
  ++materialized_shards_;
  materialized_machines_ += count;
}

MachineTable::Slot& MachineTable::slot(int machine) {
  const int shard = shard_of(machine);
  Shard& s = shards_[static_cast<std::size_t>(shard)];
  if (!s.materialized) materialize_shard(shard);
  return s.slots[static_cast<std::size_t>(machine % cfg_.shard_size)];
}

hypervisor::Machine& MachineTable::machine(int i) { return *slot(i).machine; }

NodeId MachineTable::machine_node(int i) { return slot(i).node; }

}  // namespace stopwatch::topology
