// The StopWatch cloud — the paper's primary contribution assembled.
//
// A Cloud owns the simulator, the network fabric, the sharded machine
// table (src/topology), the ingress and egress nodes, and the guest VMs.
// The mitigation backend is chosen by CloudConfig::policy
// (hypervisor::PolicyConfig — see src/hypervisor/policy.hpp). Under the
// StopWatch policy every guest VM added is transparently replicated
// `replica_count` times across the requested machines and wired into:
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
// Every cloud takes one lifecycle, at any sim_shards:
//   * add_vm / add_vms record only the placement: a machine row and a
//     16-byte entry (an unbuilt address, a factory index, a null wired
//     pointer). No network node, name string or factory copy is built per
//     VM, and no event is scheduled, so registering Θ(n²) placements
//     (376,251 VMs over n = 1503 machines) costs 28 bytes per VM.
//   * A VM's address node (its ingress entry) is built at first need:
//     vm_addr, or wiring. Every network node's random stream is keyed by
//     what the node is (net::node_key: the egress, VM address i, machine
//     m, external k), so a VM's timing does not depend on the cold VMs
//     registered after it, on shard_size, or on the order nodes are
//     built in.
//   * activate(vms) declares the activation set, builds the ShardPlan that
//     partitions it across the sim_shards cores, and wires the listed VMs
//     in index order: their multicast groups, replica GuestContexts, and
//     the machine shards hosting them come into existence here, on the
//     cores the plan assigns, which also own their address nodes. This
//     is the only step that wires a VM; a frame reaching a VM outside the
//     set is a contract violation naming it. A cloud that never calls
//     activate gets every registered VM activated by start().
//   * start() boots every wired VM at the median of its machines' clocks
//     (Sec. IV-A), one event per VM on the core that owns its replicas,
//     in (owner core, machine shard, VM index) order; run_for runs.
//
// Under the baseline-Xen policy the same wiring runs unreplicated guests
// on unmodified-Xen semantics (real clocks, immediate interrupt delivery):
// the comparison baseline for every experiment. The Deterland and TIFC
// policies reuse the unreplicated wiring with their own delivery and
// egress-release rules. The delivery-time agreement itself stays in
// hypervisor::GuestContext; routing here is placement-scale plumbing.
//
// Everything here is event-driven on sim::Simulator's slab/timer-wheel
// core: callbacks are sim::Task (48-byte inline storage — every scheduling
// lambda in this tree fits), and periodic mechanisms (vCPU slices, sync
// beacons, stall rechecks, multicast SPM/NAK timers, workload issue loops)
// re-arm their one arena slot via Simulator::reschedule_after.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "hypervisor/guest_context.hpp"
#include "hypervisor/machine.hpp"
#include "hypervisor/policy.hpp"
#include "net/multicast.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "topology/machine_table.hpp"
#include "topology/shard_plan.hpp"
#include "vm/guest.hpp"

namespace stopwatch::core {

using hypervisor::PolicyConfig;
using hypervisor::PolicyKind;

/// Every field is set by some scenario, test or example; the fixed
/// parameters of the paper's testbed are constants next to their reader.
/// Wiring builds each replica's GuestContextConfig from `policy` and
/// `replica_count`; a scenario that reads per-packet decisions installs a
/// hypervisor::DeliveryTap on the replicas it reads.
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
  /// Per-machine model parameters; each machine's clock offset is drawn
  /// separately (clock_offset_spread).
  hypervisor::MachineConfig machine_template{};
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

/// Per-VM egress statistics.
struct EgressStats {
  std::uint64_t packets_released{0};
  /// Replica output hash mismatches observed at the egress (must stay 0:
  /// replicas are deterministic).
  std::uint64_t hash_mismatches{0};
};

class Cloud {
 public:
  using ProgramFactory = std::function<std::unique_ptr<vm::GuestProgram>()>;
  using PacketHandler = std::function<void(const net::Packet&)>;
  /// Observer of egress packet releases — the attacker-visible event. Fires
  /// at the instant the egress forwards a guest output (the median emission
  /// timing under StopWatch, the sole copy under baseline, the batch
  /// boundary under Deterland, the paced-queue slot under TifcPacing), for
  /// every VM.
  using EgressTap =
      std::function<void(std::uint32_t vm, RealTime when, const net::Packet&)>;

  explicit Cloud(CloudConfig cfg);

  Cloud(const Cloud&) = delete;
  Cloud& operator=(const Cloud&) = delete;

  /// Registers a guest VM placed on the first effective_replicas() entries
  /// of `machine_indices` (validated: in range, pairwise distinct; baseline
  /// uses only the first). Only the placement is recorded; activate wires
  /// it, invoking the factory once per replica. All replicas receive the
  /// same deterministic seed. `name` labels the VM in errors and traces;
  /// an empty one stands for "vm<index>".
  VmHandle add_vm(std::string name, ProgramFactory factory,
                  const std::vector<int>& machine_indices);

  /// Registers one VM per row of `rows`, `row_width` machine indices per
  /// row, row-major — the same as one add_vm per row with no name, except
  /// that the whole batch shares `factory` and capacity is reserved once.
  /// Returns the first row's handle; row i's is `first.index + i`.
  VmHandle add_vms(ProgramFactory factory, std::span<const int> rows,
                   std::size_t row_width);

  /// Adds an external endpoint (client, collector...) reached over the
  /// client link model (one per-node link entry, not a per-VM fan-out).
  NodeId add_external_node(PacketHandler on_packet);

  /// Sends a packet from an external node (src is filled in).
  void send_external(NodeId from, net::Packet pkt);

  /// Activates every registered VM if activate() was not called, then
  /// boots every wired VM in (owner core, machine shard, VM index) order:
  /// exchanges machine clocks and starts each replica with the median as
  /// the initial virtual time (Sec. IV-A).
  void start();

  /// Runs the simulation for `d` (of simulated real time).
  void run_for(Duration d);

  /// Stops all guests (no further slices are scheduled).
  void halt_all();

  /// Declares `driven` the activation set and partitions it across the
  /// configured sim_shards cores (whole shares-a-machine components per
  /// core — see topology::ShardPlan), wiring every listed VM in index
  /// order on the core the plan assigns its machines; each VM's ingress
  /// address delivers on that core. The egress gateway and every external
  /// node move to the plan's egress shard. At most once, before start(),
  /// and with more than one shard before any machine materializes (it
  /// would sit on core 0 whatever the plan says). A preinstalled egress
  /// tap must stay single-writer under the plan (see set_egress_tap).
  void activate(const std::vector<VmHandle>& driven);

  /// Installs (or, with nullptr, removes) the egress release observer —
  /// the hook the leakage subsystem's TimingTap uses to record
  /// attacker-visible egress timings (see src/leakage/timing_tap.hpp). At
  /// most one tap is active; it sees releases of every VM. Across >1 shard
  /// it must stay single-writer: the policy tunnels output (the tap fires
  /// only on the egress core), or the whole activation set lives on one
  /// shard. Installing one that would not be is rejected.
  void set_egress_tap(EgressTap tap);
  [[nodiscard]] bool has_egress_tap() const {
    return static_cast<bool>(egress_tap_);
  }

  /// Installs (or, with nullptr, removes) the egress release-latency
  /// recorder: one sample per release, the span from the first replica
  /// copy's arrival at the gate to the policy's release instant, keyed by
  /// the release time. Written only from the egress core, and a pure
  /// function of sim time, so the series is byte-identical across
  /// sim_shards and --jobs. With none installed nothing is recorded.
  void set_egress_latency_series(obs::TimeSeries* series) {
    egress_series_ = series;
  }

  // --- Introspection ---

  /// The driver core — the core owning every external node and the egress
  /// gateway (shard 0 until activate moves them to the plan's egress
  /// shard; always shard 0 unsharded). Client-side drivers
  /// schedule here, which keeps external-node state single-core.
  [[nodiscard]] sim::Simulator& simulator() { return *egress_core_; }
  /// The sharded kernel itself (shard_count() == 1 unless configured up).
  [[nodiscard]] sim::ShardedSimulator& sharded() { return sharded_; }
  [[nodiscard]] net::Network& network() { return net_; }
  [[nodiscard]] topology::MachineTable& machines() { return table_; }
  /// The machine-to-core assignment (the one-shard plan until activate
  /// installs the activation set's plan).
  [[nodiscard]] const topology::ShardPlan& shard_plan() const {
    return plan_;
  }
  [[nodiscard]] hypervisor::Machine& machine(int idx);
  [[nodiscard]] int machine_count() const { return table_.machine_count(); }
  [[nodiscard]] std::size_t vm_count() const { return vms_.size(); }
  [[nodiscard]] std::size_t materialized_vm_count() const {
    return materialized_vms_;
  }
  /// The logical network address of `vm`, building its node on first
  /// need (which must come before run_for).
  [[nodiscard]] NodeId vm_addr(VmHandle vm);
  /// The machines `vm` is placed on, effective_replicas() of them.
  [[nodiscard]] std::span<const int> vm_machines(VmHandle vm) const;
  /// Wired replicas of `vm` (0 outside the activation set).
  [[nodiscard]] int replicas_of(VmHandle vm) const;
  [[nodiscard]] hypervisor::GuestContext& replica(VmHandle vm, int replica);
  [[nodiscard]] NodeId egress_node() const { return egress_node_; }
  /// Egress counters of `vm` (all zero while unwired).
  [[nodiscard]] const EgressStats& egress_stats(VmHandle vm) const;
  [[nodiscard]] const CloudConfig& config() const { return cfg_; }

  /// True if every pair of wired replicas of `vm` agrees on the common
  /// prefix of emitted packet hashes (replica determinism, Sec. VI;
  /// vacuously true while unwired).
  [[nodiscard]] bool replicas_deterministic(VmHandle vm) const;

  /// Sum of divergence counters across all wired replicas plus egress
  /// hash mismatches.
  [[nodiscard]] std::uint64_t total_divergences() const;

  /// End-of-run metrics snapshot: kernel counters summed over cores,
  /// sharded-execution stats, per-class frame counts, policy decision
  /// counters, memory-accounting gauges (arena bytes, live/due high-water
  /// marks, peak cross-shard lane bytes), and the frame-size /
  /// merge-batch histograms. Intended for a Result's `observability`
  /// block — call once after run_for.
  [[nodiscard]] obs::Snapshot observability();

 private:
  /// Replica determinism (Sec. VI), checked as the replicas emit: each
  /// replica's packet hashes are compared with replica 0's at the same
  /// output position. A pair keeps only the hashes one side has emitted
  /// and the other not yet, so the state is bounded by how far the
  /// replicas lag each other, not by the length of the run. A VM's
  /// replicas all run on one core (wire()), so no lock is needed.
  class OutputComparator {
   public:
    OutputComparator() = default;
    explicit OutputComparator(int replicas)
        : pairs_(static_cast<std::size_t>(replicas - 1)) {}
    void record(std::size_t replica, std::uint64_t hash);
    /// Whether every replica agrees with replica 0 on their common prefix.
    [[nodiscard]] bool consistent() const;

   private:
    /// Replica i (pairs_[i - 1]) against replica 0.
    struct Pair {
      /// The hashes the side ahead emitted past the other's position.
      std::deque<std::uint64_t> unmatched;
      std::uint64_t emitted{0};  // by replica i
      bool diverged{false};
    };
    /// Compares `hash` with the other side's at its position if that side
    /// is ahead, and queues it otherwise.
    static void match(Pair& p, bool other_ahead, std::uint64_t hash);

    std::uint64_t emitted0_{0};
    std::vector<Pair> pairs_;
  };

  /// State only a wired VM has: replicas, multicast groups, ingress and
  /// egress bookkeeping. wire() allocates it; an unwired VM pays only the
  /// null pointer in its VmEntry.
  struct WiredVm {
    /// Declared before the replicas, whose output hook records into it.
    OutputComparator outputs;
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

  static constexpr NodeId kNoAddr{~std::uint32_t{0}};
  /// The cold registration record every VM keeps (16 bytes). Its machine
  /// indices live in vm_machines_, its VmId is its index, its name is
  /// derived from the index unless the caller gave one (names_), and its
  /// replica seed is derived at wire time. `addr` stays kNoAddr until
  /// vm_addr builds the address node.
  struct VmEntry {
    NodeId addr{kNoAddr};
    std::uint32_t factory{0};        ///< index into factories_
    std::unique_ptr<WiredVm> wired;  ///< null until wire()
  };

  [[nodiscard]] int effective_replicas() const {
    return policy_->effective_replicas(cfg_.replica_count);
  }
  [[nodiscard]] const VmEntry& entry(VmHandle vm) const;
  /// The one registration path: validates `machines` (its first
  /// `replicas` entries, effective_replicas() read once by the caller, are
  /// the placement) and appends the row. `name` labels contract messages
  /// only; empty stands for "vm<index>", and add_vm records a real one.
  VmHandle append_row(std::uint32_t factory, std::span<const int> machines,
                      int replicas, const std::string& name);
  /// The caller's name for `vm_index`, or "vm<index>".
  [[nodiscard]] std::string vm_name(std::uint32_t vm_index) const;
  void wire(std::uint32_t vm_index);
  void boot(std::uint32_t vm_index);
  /// The simulator core the plan assigns `machine`.
  [[nodiscard]] sim::Simulator& core_of_machine(int machine);
  /// Rejects a tap (`tapped`) that would fire from more than one core: the
  /// policy emits output directly and wired VMs span several shards.
  void expect_single_writer_tap(bool tapped) const;
  void on_addr_frame(std::uint32_t vm_index, const net::Frame& frame);
  void on_ingress_packet(std::uint32_t vm_index, const net::Packet& pkt);
  void on_machine_frame(int machine_idx, const net::Frame& frame);
  void on_egress_frame(const net::Frame& frame);
  /// Forwards `pkt`, a released output of `vm`, from the egress node.
  void release(std::uint32_t vm, const net::Packet& pkt);

  CloudConfig cfg_;
  Rng root_rng_;
  sim::ShardedSimulator sharded_;
  net::Network net_;
  /// Built once the configuration validated: the egress gate and every
  /// capability query go through it.
  std::unique_ptr<hypervisor::MitigationPolicy> policy_;
  /// Trace session active at construction (null = tracing off). Captured
  /// once so every track this cloud creates shares one recorder.
  obs::TraceRecorder* trace_;
  /// The machine-to-core assignment: the one-shard plan until activate.
  topology::ShardPlan plan_;
  topology::MachineTable table_;
  /// The core owning the egress gateway and the externals: core 0 until
  /// activate moves them to the plan's egress shard. All egress-gate clock
  /// reads and hold scheduling go through this core.
  sim::Simulator* egress_core_;
  NodeId egress_node_{};
  /// Egress-gate track (pid 0/tid 0): replica copies, holds, releases.
  /// Written only from the egress node's owner core (the egress shard).
  obs::TraceTrack* egress_track_{nullptr};
  /// See set_egress_latency_series; written only from the egress core,
  /// like egress_track_.
  obs::TimeSeries* egress_series_{nullptr};
  EgressTap egress_tap_;
  std::vector<VmEntry> vms_;
  /// One per add_vm call or add_vms batch; VmEntry::factory indexes it.
  std::vector<ProgramFactory> factories_;
  /// Caller-given names by VM index, in index order (append-only).
  std::vector<std::pair<std::uint32_t, std::string>> names_;
  /// Machine indices of every VM, effective_replicas() per VM, in VM order.
  std::vector<int> vm_machines_;
  /// Built address node ID -> VM index; kNoVm for every other node.
  static constexpr std::uint32_t kNoVm = ~std::uint32_t{0};
  std::vector<std::uint32_t> addr_to_vm_;
  std::map<std::uint32_t, net::MulticastGroup*> groups_;  // by group id
  std::uint32_t next_group_id_{1};
  std::size_t materialized_vms_{0};
  /// Owns every named metric of this cloud; histograms are created in the
  /// constructor (single-threaded) and recorded into concurrently.
  obs::Registry registry_;
  /// Barrier-window trace track (kParallel) + previous barrier time for
  /// span construction. Null / unset when tracing is off.
  obs::TraceTrack* barrier_track_{nullptr};
  std::int64_t prev_barrier_ns_{-1};
  /// External endpoints registered so far; activate re-homes them (with
  /// the egress) onto the plan's egress shard.
  std::vector<NodeId> external_nodes_;
  bool activated_{false};
  bool started_{false};
};

}  // namespace stopwatch::core
