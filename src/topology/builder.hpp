// Cloud-scale topology assembly — the layer between the simulator kernel
// and core::Cloud.
//
// The TopologyBuilder owns the structure of the cloud: the sharded
// MachineTable, the ingress/egress fabric, and one VmEntry per guest VM.
// Every VM goes through one lifecycle:
//
//  * add_vm records only the placement (name, machine triple, program
//    factory) and registers the VM's ingress address node — an ~80 B cold
//    record and zero scheduled events, so registering Θ(n²) placements
//    (376,251 VMs over n = 1503 machines) costs O(VMs) compact records.
//  * attach_sharding takes the activation set and the ShardPlan that
//    assigns machines to simulator cores, and wires the listed VMs in
//    index order: their multicast groups, replica GuestContexts, and the
//    machine shards hosting them come into existence here, on the cores
//    the plan assigns. This is the only step that wires a VM.
//  * start() boots every wired VM at the median of its machines' clocks
//    (Sec. IV-A), batched per (owner core, machine shard) into single
//    simulator entries (Simulator::schedule_batch).
//
// A frame reaching a VM outside the activation set is a contract
// violation naming that VM, at every shard count.
//
// Frame routing (ingress replication, reliable-multicast group dispatch,
// median egress release) lives here too: it is placement-scale plumbing,
// not policy — the delivery-time agreement itself stays in
// hypervisor::GuestContext.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "hypervisor/guest_context.hpp"
#include "hypervisor/policy.hpp"
#include "net/multicast.hpp"
#include "net/network.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "topology/machine_table.hpp"
#include "topology/shard_plan.hpp"
#include "vm/guest.hpp"

namespace stopwatch::topology {

struct TopologyConfig {
  std::uint64_t seed{1};
  hypervisor::PolicyConfig policy{};
  int replica_count{3};
  int machine_count{1};
  int shard_size{64};
  hypervisor::MachineConfig machine_template{};
  hypervisor::GuestContextConfig guest_template{};
  Duration clock_offset_spread{};
};

/// Per-VM egress statistics.
struct EgressStats {
  std::uint64_t packets_released{0};
  /// Replica output hash mismatches observed at the egress (must stay 0:
  /// replicas are deterministic).
  std::uint64_t hash_mismatches{0};
};

class TopologyBuilder {
 public:
  using ProgramFactory = std::function<std::unique_ptr<vm::GuestProgram>()>;
  /// Observer of egress packet releases — the attacker-visible event. Fires
  /// at the instant the egress forwards a guest output (the median emission
  /// timing under StopWatch, the sole copy under baseline, the batch
  /// boundary under Deterland, the paced-queue slot under TifcPacing), for
  /// every VM.
  using EgressTap =
      std::function<void(std::uint32_t vm, RealTime when, const net::Packet&)>;

  /// Builds on `sharded`'s cores; until attach_sharding installs a plan,
  /// the one-shard plan places everything on core 0.
  TopologyBuilder(sim::ShardedSimulator& sharded, net::Network& net,
                  TopologyConfig cfg);

  TopologyBuilder(const TopologyBuilder&) = delete;
  TopologyBuilder& operator=(const TopologyBuilder&) = delete;

  /// Registers a guest VM placed on the first effective_replicas() entries
  /// of `machine_indices` (validated: in range, pairwise distinct). Only
  /// the placement is recorded; attach_sharding wires it. Returns the VM
  /// index.
  std::uint32_t add_vm(std::string name, ProgramFactory factory,
                       const std::vector<int>& machine_indices);

  /// Boots every wired VM, batching boot callbacks per (owner core, machine
  /// shard) into single simulator entries at the current time.
  void start();

  /// Halts every wired replica.
  void halt_all();

  /// Installs `plan` and wires the activation set `active_vms`, in index
  /// order. Every machine (and every VM whose replicas it hosts) is built
  /// on the simulator core the plan assigns it, and each VM's ingress
  /// address delivers on that core. The egress gateway moves to the plan's
  /// egress_shard() — the last core, which hosts no guest on a
  /// multi-shard plan. Runs once, before start(). A plan over more than
  /// one shard requires that no machine has materialized yet (it would sit
  /// on core 0 whatever the plan says). An installed egress tap is allowed
  /// across >1 shard iff it stays single-writer: the policy tunnels output
  /// (the tap fires only on the egress core), or the whole activation set
  /// lives on one shard (non-tunneled sends fire it only from that core).
  void attach_sharding(ShardPlan plan,
                       const std::vector<std::uint32_t>& active_vms);

  /// Installs (or, with nullptr, removes) the egress release observer used
  /// by the leakage subsystem's TimingTap. At most one tap is active; the
  /// tap sees releases of every VM and filters by index itself. Across
  /// >1 shard the tap must stay single-writer (see attach_sharding);
  /// installing one that would not be is rejected.
  void set_egress_tap(EgressTap tap);
  [[nodiscard]] bool has_egress_tap() const {
    return static_cast<bool>(egress_tap_);
  }

  /// Installs (or, with nullptr, removes) the sim-time rollup series fed
  /// one sample per egress release: the span from the first replica copy's
  /// arrival at the gate to the policy's release instant, in ns, keyed by
  /// the release time. Written only from the egress node's owner core
  /// (the plan's egress shard when sharded) — the same single-writer
  /// discipline as egress_track_ — so the series is byte-identical across
  /// shard counts.
  void set_egress_latency_series(obs::TimeSeries* series) {
    egress_series_ = series;
  }

  // --- Introspection ---

  [[nodiscard]] int effective_replicas() const {
    return policy_->effective_replicas(cfg_.replica_count);
  }
  /// The mitigation backend governing this topology's routing and egress
  /// release semantics.
  [[nodiscard]] const hypervisor::MitigationPolicy& policy() const {
    return *policy_;
  }
  [[nodiscard]] MachineTable& machines() { return table_; }
  [[nodiscard]] const MachineTable& machines() const { return table_; }
  [[nodiscard]] NodeId egress_node() const { return egress_node_; }
  [[nodiscard]] std::size_t vm_count() const { return vms_.size(); }
  [[nodiscard]] std::size_t materialized_vm_count() const {
    return materialized_vms_;
  }
  [[nodiscard]] bool materialized(std::uint32_t vm) const;
  [[nodiscard]] NodeId vm_addr(std::uint32_t vm) const;
  [[nodiscard]] std::span<const int> vm_machines(std::uint32_t vm) const;
  /// Wired replicas of `vm` (0 outside the activation set).
  [[nodiscard]] int replicas_of(std::uint32_t vm) const;
  [[nodiscard]] hypervisor::GuestContext& replica(std::uint32_t vm, int r);
  /// Egress counters of `vm` (all zero while unwired).
  [[nodiscard]] const EgressStats& egress_stats(std::uint32_t vm) const;
  /// True if every pair of materialized replicas of `vm` agrees on the
  /// common prefix of emitted packet hashes (vacuously true while unwired).
  [[nodiscard]] bool replicas_deterministic(std::uint32_t vm) const;
  /// Sum of divergence counters across all materialized replicas plus
  /// egress hash mismatches.
  [[nodiscard]] std::uint64_t total_divergences() const;
  /// Sum of policy decision counters over the topology-level policy
  /// instance and every materialized replica's instance.
  [[nodiscard]] hypervisor::PolicyStats aggregate_policy_stats() const;
  [[nodiscard]] const TopologyConfig& config() const { return cfg_; }
  /// The machine-to-core assignment (the one-shard plan until
  /// attach_sharding installs the activation set's plan).
  [[nodiscard]] const ShardPlan& shard_plan() const { return plan_; }

 private:
  /// State only a wired VM has: replicas, multicast groups, ingress and
  /// egress bookkeeping. wire() allocates it; an unwired VM pays 8 bytes.
  struct WiredVm {
    std::vector<std::unique_ptr<hypervisor::GuestContext>> replicas;
    std::unique_ptr<net::MulticastGroup> control_group;
    std::unique_ptr<net::MulticastGroup> ingress_group;
    std::uint32_t ingress_group_id{0};
    std::uint64_t ingress_seq{0};
    // Egress reassembly: out_seq -> (copies seen, first hash, released).
    struct EgressSlot {
      int copies{0};
      std::uint64_t hash{0};
      bool released{false};
      /// Arrival time of the first replica copy — the base of the
      /// release-latency sample fed to the egress latency series.
      std::int64_t first_copy_ns{0};
    };
    std::map<std::uint64_t, EgressSlot> egress_slots;
    EgressStats egress_stats;
    /// Frame-lifecycle trace track (null when tracing is inactive). Events
    /// are written only from the core owning the VM's machines — one
    /// writer per track, which is what the recorder's lock-free append
    /// relies on.
    obs::TraceTrack* track{nullptr};
  };

  /// The cold registration record every VM keeps (~80 bytes). Its machine
  /// indices live in machines_, its VmId is its index, and its replica seed
  /// is derived at wire time.
  struct VmEntry {
    std::string name;
    ProgramFactory factory;
    NodeId addr{};
    std::unique_ptr<WiredVm> wired;  ///< null until wire()
  };

  void wire(std::uint32_t vm_index);
  void boot(std::uint32_t vm_index);
  /// The simulator core the plan assigns `machine`.
  [[nodiscard]] sim::Simulator& core_of_machine(int machine);
  /// True if every wired VM's replicas live on one shard — the condition
  /// under which a non-tunneling policy's egress tap stays single-writer.
  [[nodiscard]] bool wired_vms_on_one_shard() const;
  void on_addr_frame(std::uint32_t vm_index, const net::Frame& frame);
  void on_ingress_packet(std::uint32_t vm_index, const net::Packet& pkt);
  void on_machine_frame(int machine_idx, const net::Frame& frame);
  void on_egress_frame(const net::Frame& frame);

  TopologyConfig cfg_;
  /// Built first: validation and every capability query go through it.
  std::unique_ptr<hypervisor::MitigationPolicy> policy_;
  /// Trace session active at construction (null = tracing off). Captured
  /// once so every track this topology creates shares one recorder.
  obs::TraceRecorder* trace_;
  /// Egress-gate track (pid 0/tid 0): replica copies, holds, releases.
  /// Written only from the egress node's owner core (the egress shard).
  obs::TraceTrack* egress_track_{nullptr};
  /// Release-latency rollups (null = off); single-writer, see setter.
  obs::TimeSeries* egress_series_{nullptr};
  EgressTap egress_tap_;
  sim::ShardedSimulator* sharded_;
  /// The core owning the egress gateway: core 0 until attach_sharding
  /// moves it to the plan's egress shard. All egress-gate clock reads and
  /// hold scheduling go through this core.
  sim::Simulator* egress_core_;
  ShardPlan plan_;
  net::Network* net_;
  MachineTable table_;
  NodeId egress_node_{};
  std::vector<VmEntry> vms_;
  /// Machine indices of every VM, effective_replicas() per VM, in VM order.
  std::vector<int> machines_;
  /// Ingress address node -> VM index; kNoVm for every other node.
  static constexpr std::uint32_t kNoVm = ~std::uint32_t{0};
  std::vector<std::uint32_t> addr_to_vm_;
  std::map<std::uint32_t, net::MulticastGroup*> groups_;  // by group id
  std::uint32_t next_group_id_{1};
  std::size_t materialized_vms_{0};
  bool started_{false};
};

}  // namespace stopwatch::topology
