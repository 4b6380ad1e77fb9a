#include "topology/shard_plan.hpp"

#include <algorithm>
#include <map>
#include <string>

#include "common/contracts.hpp"

namespace stopwatch::topology {

namespace {

int find_root(std::vector<int>& parent, int x) {
  while (parent[static_cast<std::size_t>(x)] != x) {
    parent[static_cast<std::size_t>(x)] =
        parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
    x = parent[static_cast<std::size_t>(x)];
  }
  return x;
}

}  // namespace

ShardPlan ShardPlan::build(
    int shards, int machine_count,
    const std::vector<std::vector<int>>& machine_groups) {
  SW_EXPECTS(shards >= 1);
  SW_EXPECTS(machine_count >= 1);
  ShardPlan plan;
  plan.shards_ = shards;
  plan.machine_shard_.assign(static_cast<std::size_t>(machine_count), -1);
  plan.loads_.assign(static_cast<std::size_t>(shards), 0);

  // Union-find over the shares-a-machine graph of the active VMs.
  std::vector<int> parent(static_cast<std::size_t>(machine_count));
  for (int m = 0; m < machine_count; ++m) {
    parent[static_cast<std::size_t>(m)] = m;
  }
  for (const auto& group : machine_groups) {
    for (const int m : group) {
      SW_EXPECTS_MSG(m >= 0 && m < machine_count,
                     "ShardPlan machine index " + std::to_string(m) +
                         " out of range [0, " + std::to_string(machine_count) +
                         ")");
    }
    for (std::size_t i = 1; i < group.size(); ++i) {
      const int a = find_root(parent, group[0]);
      const int b = find_root(parent, group[i]);
      if (a != b) {
        parent[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
      }
    }
  }

  // Collect components of the machines the groups touch. std::map keys by
  // root = smallest member, so iteration order is deterministic.
  std::map<int, std::vector<int>> components;
  for (const auto& group : machine_groups) {
    for (const int m : group) components[find_root(parent, m)].push_back(m);
  }
  struct Component {
    int root;
    std::vector<int> machines;  // sorted, deduplicated
  };
  std::vector<Component> ordered;
  ordered.reserve(components.size());
  for (auto& [root, machines] : components) {
    std::sort(machines.begin(), machines.end());
    machines.erase(std::unique(machines.begin(), machines.end()),
                   machines.end());
    ordered.push_back({root, std::move(machines)});
  }
  plan.components_ = static_cast<int>(ordered.size());

  // Egress + external clients own the last shard alone whenever there
  // is more than one: that core then runs only the client and egress
  // traffic, and no guest component's load paces its windows.
  plan.egress_shard_ = shards - 1;
  const int guest_shards = std::max(1, shards - 1);
  // Deterministic greedy balance over the guest shards: biggest
  // components first (smallest root breaks ties), each onto the
  // least-loaded shard (lowest index breaks ties) — longest-processing-
  // time scheduling, a pure function of the active set.
  std::sort(ordered.begin(), ordered.end(),
            [](const Component& a, const Component& b) {
              if (a.machines.size() != b.machines.size()) {
                return a.machines.size() > b.machines.size();
              }
              return a.root < b.root;
            });
  for (const auto& component : ordered) {
    int target = 0;
    for (int s = 1; s < guest_shards; ++s) {
      if (plan.loads_[static_cast<std::size_t>(s)] <
          plan.loads_[static_cast<std::size_t>(target)]) {
        target = s;
      }
    }
    for (const int m : component.machines) {
      plan.machine_shard_[static_cast<std::size_t>(m)] = target;
    }
    plan.loads_[static_cast<std::size_t>(target)] +=
        static_cast<int>(component.machines.size());
  }
  return plan;
}

int ShardPlan::shard_of_machine(int machine) const {
  SW_EXPECTS(machine >= 0);
  if (machine_shard_.empty()) return 0;  // trivial plan
  SW_EXPECTS(machine < static_cast<int>(machine_shard_.size()));
  const int assigned = machine_shard_[static_cast<std::size_t>(machine)];
  return assigned >= 0 ? assigned : machine % shards_;
}

}  // namespace stopwatch::topology
