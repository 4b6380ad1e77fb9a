// Machine-to-shard assignment for shard-parallel simulation.
//
// A VM's replicas call synchronously into their hosting machines (clock
// reads, preemption draws, disk scheduling), and replicas of one VM
// exchange multicast traffic whose group state must stay single-threaded
// — so all machines hosting one VM must land on the same simulator core.
// Transitively, any two VMs sharing a machine must co-locate too. The
// plan therefore clusters the *active* VMs' machine triples into
// connected components (union-find over the shares-a-machine graph) and
// distributes whole components across the guest shards — every shard but
// the egress shard, once there are two or more — with a deterministic
// greedy balance: components ordered by (size desc, smallest machine
// index asc), each assigned to the currently least-loaded guest shard
// (ties to the lowest shard index). Machines touched by no active VM get a round-robin
// fallback assignment; under the activation contract they never
// materialize mid-run, so the fallback only keeps shard_of_machine total.
#pragma once

#include <vector>

namespace stopwatch::topology {

class ShardPlan {
 public:
  /// Trivial plan: one shard owning everything.
  ShardPlan() = default;

  /// Builds a plan over `machine_count` machines for `shards` cores from
  /// the machine groups of the VMs that will be active. Deterministic: a
  /// pure function of the arguments.
  static ShardPlan build(int shards, int machine_count,
                         const std::vector<std::vector<int>>& machine_groups);

  [[nodiscard]] int shards() const { return shards_; }
  [[nodiscard]] int shard_of_machine(int machine) const;
  /// Connected components among the active machines (parallelism upper
  /// bound: fewer components than shards leaves cores idle).
  [[nodiscard]] int component_count() const { return components_; }
  /// Machines per shard, planned components only (balance diagnostics).
  [[nodiscard]] const std::vector<int>& shard_loads() const { return loads_; }
  /// Shard that owns the egress gateway and the external-client nodes:
  /// the last shard, which holds no guest component whenever shards > 1.
  /// The client/egress core then runs only its own traffic, so guest
  /// load never paces its windows (and through them, every other
  /// core's). 0 for a one-shard plan.
  [[nodiscard]] int egress_shard() const { return egress_shard_; }

 private:
  int shards_{1};
  std::vector<int> machine_shard_;  // -1 = unplanned (round-robin fallback)
  std::vector<int> loads_;
  int components_{0};
  int egress_shard_{0};
};

}  // namespace stopwatch::topology
