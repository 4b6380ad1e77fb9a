// The StopWatch cloud — the paper's primary contribution assembled.
//
// A Cloud owns the simulator, the network fabric, and the topology layer
// (src/topology) that in turn owns the sharded machine table, the ingress
// and egress nodes, and the guest VMs. The mitigation backend is chosen by
// CloudConfig::policy (hypervisor::PolicyConfig — see
// src/hypervisor/policy.hpp). Under the StopWatch policy every guest
// VM added is transparently replicated `replica_count` times across the
// requested machines and wired into:
//   * a per-VM ingress entry (its logical network address) that replicates
//     every inbound packet to all hosting VMMs via reliable multicast
//     (Sec. V);
//   * a per-VM control multicast group carrying delivery-time proposals,
//     virtual-time sync beacons, and epoch reports among the replica VMMs;
//   * the egress node, which forwards a guest output packet to its
//     destination upon receiving the *second* replica copy — the median
//     emission timing (Sec. VI) — and simultaneously verifies replica
//     output determinism via content hashes.
//
// Every cloud takes one lifecycle: add_vm registers a cold placement
// record; activate(vms) declares the activation set, partitions it across
// the sim_shards cores, and wires it; start() boots the wired replicas;
// run_for runs. A cloud that never calls activate gets every registered VM
// activated by start(). Placement-scale scenarios register Θ(n²) VM
// placements over hundreds of machines and only pay for the ones they
// activate.
//
// Under the baseline-Xen policy the same topology runs unreplicated
// guests on unmodified-Xen semantics (real clocks, immediate interrupt
// delivery): the comparison baseline for every experiment. The Deterland
// and TIFC policies reuse the unreplicated wiring with their own delivery
// and egress-release rules.
//
// Everything here is event-driven on sim::Simulator's slab/timer-wheel
// core: callbacks are sim::Task (48-byte inline storage — every scheduling
// lambda in this tree fits), and periodic mechanisms (vCPU slices, sync
// beacons, stall rechecks, multicast SPM/NAK timers, workload issue loops)
// re-arm their one arena slot via Simulator::reschedule_after.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "hypervisor/guest_context.hpp"
#include "hypervisor/machine.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "topology/builder.hpp"
#include "topology/shard_plan.hpp"
#include "vm/guest.hpp"

namespace stopwatch::core {

using hypervisor::PolicyConfig;
using hypervisor::PolicyKind;
using topology::EgressStats;

struct CloudConfig {
  std::uint64_t seed{1};
  /// Mitigation-policy selection + per-policy knobs (implicitly
  /// constructible from a PolicyKind; see hypervisor/policy.hpp).
  PolicyConfig policy{};
  /// Replicas per guest VM under replicated policies (3 in the paper, 5
  /// for Sec. IX hardening). Ignored (forced to 1) under non-replicated
  /// policies.
  int replica_count{3};
  int machine_count{3};
  /// Machines per shard of the topology layer's machine table.
  int shard_size{64};
  hypervisor::MachineConfig machine_template{};
  hypervisor::GuestContextConfig guest_template{};
  /// Intra-cloud links (machine <-> machine / ingress / egress).
  net::LinkModel cloud_link{Duration::micros(150), 0.15, 125e6, 0.0};
  /// External client links (the paper's campus-wireless client).
  net::LinkModel client_link{Duration::millis(3), 0.20, 2.5e6, 0.0};
  /// Machine clock offsets drawn uniformly from [0, spread).
  Duration clock_offset_spread{Duration::millis(40)};
  /// Simulator cores. 1 = the sequential kernel. >1 runs shard-parallel:
  /// activation partitions the active VMs across cores, and scenario
  /// output stays byte-identical to sim_shards=1.
  int sim_shards{1};
};

/// Opaque handle to a guest VM in the cloud.
struct VmHandle {
  std::uint32_t index{0};
};

class Cloud {
 public:
  using ProgramFactory = topology::TopologyBuilder::ProgramFactory;
  using PacketHandler = std::function<void(const net::Packet&)>;

  explicit Cloud(CloudConfig cfg);

  Cloud(const Cloud&) = delete;
  Cloud& operator=(const Cloud&) = delete;

  /// Adds a guest VM replicated across `machine_indices` (first
  /// `replica_count` entries used; baseline uses only the first). The
  /// factory is invoked once per replica, when the VM is activated; all
  /// replicas receive the same deterministic seed.
  VmHandle add_vm(std::string name, ProgramFactory factory,
                  const std::vector<int>& machine_indices);

  /// Adds an external endpoint (client, collector...) reached over the
  /// client link model (one per-node link entry, not a per-VM fan-out).
  NodeId add_external_node(PacketHandler on_packet);

  /// Sends a packet from an external node (src is filled in).
  void send_external(NodeId from, net::Packet pkt);

  /// Activates every registered VM if activate() was not called, then
  /// boots every wired VM, batched per machine shard: exchanges machine
  /// clocks and starts each replica with the median as the initial virtual
  /// time (Sec. IV-A).
  void start();

  /// Runs the simulation for `d` (of simulated real time).
  void run_for(Duration d);

  /// Stops all guests (no further slices are scheduled).
  void halt_all();

  /// Declares `driven` the activation set and partitions it across the
  /// configured sim_shards cores (whole shares-a-machine components per
  /// core — see topology::ShardPlan), wiring every listed VM in index
  /// order. The only way a VM is wired: traffic reaching a VM outside the
  /// set is a ContractViolation naming it. At most once, before start().
  void activate(const std::vector<VmHandle>& driven);

  /// Installs (or clears) the egress release observer — the hook the
  /// leakage subsystem's TimingTap uses to record attacker-visible egress
  /// timings (see src/leakage/timing_tap.hpp).
  void set_egress_tap(topology::TopologyBuilder::EgressTap tap) {
    topo_->set_egress_tap(std::move(tap));
  }
  [[nodiscard]] bool has_egress_tap() const {
    return topo_->has_egress_tap();
  }

  // --- Introspection ---

  /// The driver core — the core owning every external node and the egress
  /// gateway (shard 0 until activate moves them to the plan's egress
  /// shard; always shard 0 unsharded). Client-side drivers
  /// schedule here, which keeps external-node state single-core.
  [[nodiscard]] sim::Simulator& simulator() {
    return sharded_.shard(driver_shard_);
  }
  /// The sharded kernel itself (shard_count() == 1 unless configured up).
  [[nodiscard]] sim::ShardedSimulator& sharded() { return sharded_; }
  /// Events executed across all cores.
  [[nodiscard]] std::uint64_t events_executed() const {
    return sharded_.events_executed();
  }
  [[nodiscard]] net::Network& network() { return net_; }
  [[nodiscard]] topology::TopologyBuilder& topology() { return *topo_; }
  [[nodiscard]] hypervisor::Machine& machine(int idx);
  [[nodiscard]] int machine_count() const {
    return topo_->machines().machine_count();
  }
  [[nodiscard]] hypervisor::GuestContext& replica(VmHandle vm, int replica);
  [[nodiscard]] int replicas_of(VmHandle vm) const;
  [[nodiscard]] bool vm_materialized(VmHandle vm) const {
    return topo_->materialized(vm.index);
  }
  [[nodiscard]] NodeId vm_addr(VmHandle vm) const;
  [[nodiscard]] NodeId egress_node() const { return topo_->egress_node(); }
  [[nodiscard]] const EgressStats& egress_stats(VmHandle vm) const;
  [[nodiscard]] const CloudConfig& config() const { return cfg_; }

  /// True if every pair of replicas of `vm` agrees on the common prefix of
  /// emitted packet hashes (replica determinism, Sec. VI).
  [[nodiscard]] bool replicas_deterministic(VmHandle vm) const;

  /// Sum of divergence counters across all replicas of all VMs.
  [[nodiscard]] std::uint64_t total_divergences() const;

  /// End-of-run metrics snapshot: kernel counters summed over cores,
  /// sharded-execution stats, per-class frame counts, policy decision
  /// counters, memory-accounting gauges (arena bytes, live/due/far
  /// high-water marks, peak cross-shard lane bytes), and the frame-size /
  /// merge-batch histograms. Intended for a Result's `observability`
  /// block — call once after run_for.
  [[nodiscard]] obs::Snapshot observability();

  /// Sim-time rollup series owned by the cloud, named for a Result's
  /// `timeseries` block. Currently one series: `egress.release_latency_ns`,
  /// fed one sample per egress release (first replica copy -> policy
  /// release instant). Values are pure functions of sim time, so the
  /// snapshots are byte-identical across sim_shards and --jobs.
  [[nodiscard]] std::vector<std::pair<std::string, obs::TimeSeriesSnapshot>>
  timeseries() const {
    return {{"egress.release_latency_ns", egress_series_.snapshot()}};
  }

 private:
  CloudConfig cfg_;
  Rng root_rng_;
  sim::ShardedSimulator sharded_;
  net::Network net_;
  std::unique_ptr<topology::TopologyBuilder> topo_;
  /// Owns every named metric of this cloud; histograms are created in the
  /// constructor (single-threaded) and recorded into concurrently.
  obs::Registry registry_;
  /// Egress release-latency rollups, recorded by the topology's egress
  /// gate (single writer: the egress owner core). 64-window budget; the
  /// 50 ms initial width doubles as long horizons coarsen it.
  obs::TimeSeries egress_series_{50 * 1000 * 1000, 64};
  /// Barrier-window trace track (kParallel) + previous barrier time for
  /// span construction. Null / unset when tracing is off.
  obs::TraceTrack* barrier_track_{nullptr};
  std::int64_t prev_barrier_ns_{-1};
  /// External endpoints registered so far; activate re-homes them (with
  /// the egress) onto the plan's egress shard.
  std::vector<NodeId> external_nodes_;
  /// Core that owns externals + egress — what simulator() returns. 0
  /// until activate installs the plan's egress shard.
  int driver_shard_{0};
  bool activated_{false};
  bool started_{false};
};

}  // namespace stopwatch::core
