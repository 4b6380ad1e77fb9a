// The per-replica VMM driver — StopWatch's modified hypervisor + QEMU
// device models (paper Secs. IV-V), one instance per (guest VM, replica).
//
// Responsibilities:
//  * execution engine: runs the guest in instruction slices whose real
//    duration reflects host speed, contention, and jitter; every slice ends
//    in a guest-caused VM exit (periodic, or at a trapping I/O instruction);
//  * the guest clock and PIT timer-interrupt injection (Sec. IV-B);
//  * the network card device model: buffer-hide inbound packets and deliver
//    them at the policy's delivery time — under StopWatch: propose
//    virt(last exit) + Δn, multicast proposals, adopt the median, inject at
//    the first guest-caused exit past the delivery time, and only then copy
//    data to the guest (anti-polling) (Sec. V);
//  * the IDE disk / DMA device model: deliver completion interrupts at the
//    policy's disk deadline (virt(request) + Δd under StopWatch), provided
//    the physical transfer finished (Sec. V);
//  * output tunneling to the egress node, when the policy tunnels (Sec. VI);
//  * fastest-replica throttling via virtual-time sync beacons (Sec. VII-A);
//  * epoch-based clock resynchronization (Sec. IV-A);
//  * divergence detection (synchrony violations).
//
// Every policy-dependent decision is delegated to the MitigationPolicy
// built from GuestContextConfig::policy (see hypervisor/policy.hpp): under
// PolicyKind::kBaselineXen the same machinery emulates unmodified Xen —
// the guest clock passes through machine-local real time, and interrupts
// are delivered as soon as Dom0 has processed them — which is exactly what
// leaks coresident-victim activity.
//
// Spans. Interrupts are injected only at guest exits, and at an idle exit
// none is due, so nothing guest-visible happens between such exits. The
// execution engine therefore plans a *span*: the run of exits up to and
// including the first one where something may become due, with one
// simulator event (Tie::kExit) at its end.
//  * A guest qualifies when it is idle, has no queued I/O and is the only
//    LoadSource on its machine (so no co-resident reads its activity, and
//    its coresident load is the constant extra load). For such a guest
//    schedule_slice() runs the per-slice arithmetic and draws in a loop
//    and stops at the first exit that reaches a PIT tick, a guest soft
//    timer, a disk or net delivery, an epoch boundary or a stall, or at
//    one PIT period of real time past the span's start (the span bound).
//    A busy or co-resident guest plans a span of one exit: one code path.
//  * Settle: every entry point, internal event and state accessor first
//    runs the planned exits that lie in the past, exactly as their events
//    would have. At time t that is every exit strictly before t (exits at
//    t run after ordinary events, per Tie::kExit), and the exits at t too
//    once a run_until() has ended at t (Simulator::now_closed()). So a
//    read between step() calls at t leaves the exits at t to the inputs
//    still queued there, and an input scheduled at t after a run ended
//    there finds them done.
//  * Cut: an input that changes what becomes due (a proposal completing
//    a delivery, a direct packet, a change of the machine's load inputs,
//    a beacon that completes the peer set, or outside access to the
//    guest program) truncates the plan after the exit in flight, whose
//    time was fixed when its slice started; the span event moves there.
//  * Draws: each slice's IPS jitter and preemption draw come from the
//    replica's own streams, taken ahead into queues when planned and
//    popped when the slice starts, so draws a cut left unused serve the
//    next span in stream order.
// A run with spans is therefore identical, exit for exit, to one where
// every exit is its own event.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "hypervisor/machine.hpp"
#include "hypervisor/policy.hpp"
#include "hypervisor/virtual_clock.hpp"
#include "net/frame.hpp"
#include "sim/simulator.hpp"
#include "vm/guest.hpp"

namespace stopwatch::hypervisor {

struct GuestContextConfig {
  /// Mitigation-policy selection + per-policy knobs (StopWatch's Δn/Δd,
  /// aggregation rule, throttle gap, epoch resync, ... live in
  /// policy.stopwatch; see hypervisor/policy.hpp).
  PolicyConfig policy{};
  /// Replicas per guest VM (3 in the paper; 5 hardens against Sec. IX).
  /// Forced to 1 by non-replicated policies.
  int replica_count{3};
  /// Keep per-packet protocol traces (first 32 inbound packets).
  bool record_packet_traces{false};
  /// Guest-caused VM exits occur at least every this many instructions.
  std::uint64_t exit_interval_instr{100'000};
  /// PIT period (250 Hz in the paper's guests).
  Duration timer_period{Duration::micros(4000)};
  /// Initial virtual-clock slope (ns of virtual time per instruction).
  double initial_slope{1.0};
};

/// Timeline of one inbound packet through the StopWatch protocol (Fig. 2/3).
struct PacketTrace {
  std::uint64_t copy_seq{0};
  double arrival_real_ms{0.0};
  /// (machine, proposed delivery in virtual ms), in arrival order.
  std::vector<std::pair<std::uint32_t, double>> proposals_ms;
  double chosen_delivery_virt_ms{0.0};
  double inject_virt_ms{0.0};
  double inject_real_ms{0.0};
};

/// Divergence and delivery statistics (per replica).
struct GuestContextStats {
  std::uint64_t net_deliveries{0};
  std::uint64_t disk_deliveries{0};
  std::uint64_t timer_injections{0};
  std::uint64_t outputs_tunneled{0};
  /// Median delivery time had already passed when determined (synchrony
  /// assumption violated; Sec. V footnote 4).
  std::uint64_t divergence_median_passed{0};
  /// Physical disk transfer not finished by the virtual delivery time
  /// (Δd too small).
  std::uint64_t divergence_disk_late{0};
  /// Epoch reports incomplete at the (deterministic) apply point.
  std::uint64_t divergence_epoch_missing{0};
  std::uint64_t throttle_stalls{0};
  Duration total_stall_time{};
  std::uint64_t epoch_rebase_count{0};

  /// Per-packet spread (max - min) of the three proposals, in ms of virtual
  /// time — the quantity Δn must dominate (Sec. VII-A calibration).
  std::vector<double> proposal_spread_ms;
  /// Slack between median determination and the median deadline, ms.
  std::vector<double> median_margin_ms;
  /// Slack between physical disk completion and virtual delivery, ms.
  std::vector<double> disk_margin_ms;
  /// Protocol traces (when GuestContextConfig::record_packet_traces).
  std::vector<PacketTrace> packet_traces;
};

/// A replica's own per-slice random streams: host IPS jitter and vCPU
/// preemption wait. They are keyed by stable identity, so one guest's
/// draws never interleave with a co-resident's and do not depend on the
/// order in which anything was wired.
struct SliceStreams {
  Rng ips;
  Rng preempt;
  /// The streams of replica `replica` of VM index `vm` under cloud seed
  /// `seed`, one per role.
  [[nodiscard]] static SliceStreams derive(std::uint64_t seed,
                                           std::uint32_t vm,
                                           std::uint32_t replica);
};

/// Hooks the GuestContext needs from the cloud fabric.
struct ReplicaServices {
  /// Multicast a control payload to the VM's replica VMM group (reliable;
  /// includes synchronous self-delivery).
  std::function<void(net::FramePayload, std::uint32_t bytes)> control_multicast;
  /// Send a frame from this machine's network node.
  std::function<void(net::Frame)> send_frame;
  NodeId machine_node{};
  NodeId egress_node{};
};

class GuestContext final : public LoadSource {
 public:
  GuestContext(VmId vm, ReplicaIndex replica, NodeId vm_addr,
               Machine& machine, sim::Simulator& sim, GuestContextConfig cfg,
               std::unique_ptr<vm::GuestProgram> program,
               std::uint64_t det_seed, SliceStreams streams,
               ReplicaServices services);

  GuestContext(const GuestContext&) = delete;
  GuestContext& operator=(const GuestContext&) = delete;

  /// Boot the guest and begin execution. `start` is the initial virtual
  /// time (median of the replicas' machine clocks under StopWatch).
  void start(VirtTime start);

  /// Stop scheduling further slices (end of experiment).
  void halt();

  // --- Cloud-facing event entry points ---

  /// Replicated policies: an ingress copy of an inbound guest packet
  /// arrived at this machine's Dom0.
  void on_ingress_copy(const net::IngressCopy& copy);
  /// A peer VMM's (or our own) proposal for an inbound packet.
  void on_proposal(const net::Proposal& p);
  /// A peer replica's virtual-time beacon.
  void on_sync_beacon(const net::SyncBeacon& b);
  /// A peer replica's epoch report.
  void on_epoch_report(const net::EpochReport& r);
  /// Non-replicated policies: a packet delivered directly to this machine
  /// for this guest.
  void on_direct_packet(const net::Packet& pkt);

  // --- Introspection for experiments ---

  // Each accessor of run state settles the span first (see the header
  // comment); identity accessors read constants.

  [[nodiscard]] VirtTime virt_now() const;
  [[nodiscard]] std::uint64_t instr() const {
    settle();
    return guest_->instr();
  }
  [[nodiscard]] const GuestContextStats& stats() const {
    settle();
    return stats_;
  }
  [[nodiscard]] const MitigationPolicy& policy() const { return *policy_; }
  [[nodiscard]] const vm::GuestCounters& guest_counters() const {
    settle();
    return guest_->counters();
  }
  /// The guest program, for the caller to read or drive. The caller may
  /// give the guest work, so the span is cut as well as settled.
  [[nodiscard]] vm::GuestProgram& program();
  [[nodiscard]] VmId vm() const { return vm_; }
  [[nodiscard]] ReplicaIndex replica() const { return replica_; }
  [[nodiscard]] Machine& machine() { return *machine_; }
  /// Rolling hash + count of emitted guest packets (replica-determinism
  /// check: all replicas of a VM must agree at equal counts).
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> output_signature()
      const {
    settle();
    return {out_hash_chain_, out_seq_};
  }
  /// Per-packet output hashes, for prefix comparison across replicas.
  [[nodiscard]] const std::vector<std::uint64_t>& output_hashes() const {
    settle();
    return out_hashes_;
  }
  [[nodiscard]] double activity() const override {
    settle();
    return activity_ema_;
  }
  /// The machine's extra load changed or a co-resident registered: the
  /// guest's coresident load, and whether it runs spans, may change.
  void on_host_load_changed() override;

 private:
  /// One planned exit: the end of one slice.
  struct PlannedExit {
    std::int64_t at_ns;  // real time of the exit
    std::int64_t clock_ns;  // guest clock at the exit
    std::uint64_t instr;  // guest instructions retired at the exit
    /// next_preempt_instr_ once this slice was planned.
    std::uint64_t preempt_after;
    bool drew_preempt;  // the slice took a preemption draw
  };

  /// Draws from one stream, taken ahead of the slices that use them. A
  /// plan reads ahead (drawing only past the queued ones); a slice's
  /// start pops its draw; a cut leaves the unused draws queued.
  class DrawQueue {
   public:
    template <typename Draw>
    double ahead(std::size_t i, Draw&& draw) {
      while (head_ + i >= buf_.size()) buf_.push_back(draw());
      return buf_[head_ + i];
    }
    void pop() {
      if (++head_ == buf_.size()) {
        buf_.clear();
        head_ = 0;
      } else if (head_ >= 1024) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
    }

   private:
    std::vector<double> buf_;
    std::size_t head_{0};
  };

  // Execution engine.
  void schedule_slice();
  /// Plans the next span from the state after the last exit (span_[0] is
  /// the slice starting now).
  void plan_span();
  /// Pops the draws of the slice that `e` ends, as it starts.
  void start_slice(const PlannedExit& e);
  /// The span event: runs the quiet exits, then the final one in full.
  void on_span_end();
  /// Runs the quiet exits span_[span_next_, end): what on_guest_exit()
  /// does at each when nothing is due, and the start of the next slice.
  void run_quiet_exits(std::size_t end);
  /// Settles the span to now() (see the header comment). Logically const:
  /// it runs exits that already happened in simulated time.
  void settle() const {
    if (span_next_ + 1 < span_.size()) {
      const_cast<GuestContext*>(this)->settle_to_now();
    }
  }
  void settle_to_now();
  /// Truncates the plan after the exit in flight. Call after settle().
  void cut_span();
  /// Guest clock at which the earliest pending PIT tick, guest timer,
  /// disk or net delivery becomes due, or a stall begins.
  [[nodiscard]] std::int64_t next_due_clock_ns() const;
  void update_activity(bool busy) {
    activity_ema_ = 0.98 * activity_ema_ + 0.02 * (busy ? 1.0 : 0.0);
  }
  void on_guest_exit();
  void beacon_tick();
  void process_io_ops();
  void inject_due_interrupts();
  void check_epoch(std::uint64_t exit_instr);
  bool should_stall() const;
  void enter_stall();
  void recheck_stall();

  // Guest-clock "now" in ns (virtual under StopWatch/Deterland,
  // machine-local real under baseline/TIFC) as of the last guest-caused
  // exit.
  [[nodiscard]] std::int64_t guest_clock_at_last_exit() const {
    return last_exit_clock_ns_;
  }

  // Device-model state for one pending inbound packet.
  struct NetSlot {
    net::Packet pkt;
    bool have_pkt{false};
    /// Proposals received so far, keyed by proposer machine.
    std::map<std::uint32_t, std::int64_t> proposals;
    std::optional<std::int64_t> delivery;  // guest-clock ns
    std::int64_t proposal_base{0};
  };
  struct DiskSlot {
    std::uint64_t request_id{0};
    std::int64_t delivery{0};   // guest-clock ns
    RealTime physical_done{};
    bool read{false};
    bool late_counted{false};
  };

  VmId vm_;
  ReplicaIndex replica_;
  NodeId vm_addr_;
  Machine* machine_;
  sim::Simulator* sim_;
  GuestContextConfig cfg_;
  ReplicaServices services_;
  SliceStreams streams_;

  /// Built before clock_ (clock mode is a policy capability).
  std::unique_ptr<MitigationPolicy> policy_;
  /// Policy capabilities read on every guest exit; fixed at construction.
  bool replicated_;
  std::uint64_t epoch_instr_;
  std::int64_t max_gap_ns_;
  std::unique_ptr<vm::GuestVm> guest_;
  VirtualClock clock_;

  bool running_{false};
  bool halted_{false};
  bool stalled_{false};
  RealTime stall_began_{};
  /// The span in flight: span_[span_next_] is the first exit not yet run,
  /// and span_.back() is the exit of the span event.
  std::vector<PlannedExit> span_;
  std::size_t span_next_{0};
  DrawQueue jitter_draws_;
  DrawQueue preempt_draws_;
  /// Periodic timers each own one simulator arena slot for their lifetime
  /// (re-armed in place via Simulator::reschedule_after; the handles stay
  /// valid across re-arms, so halt() can still cancel them). The slice
  /// event is the span event.
  std::optional<sim::EventId> slice_event_;
  std::optional<sim::EventId> beacon_event_;
  std::optional<sim::EventId> stall_event_;

  std::uint64_t last_exit_instr_{0};
  std::int64_t last_exit_clock_ns_{0};
  std::uint64_t next_periodic_exit_{0};
  std::int64_t next_timer_tick_ns_{0};
  std::uint64_t next_preempt_instr_{0};

  // Network device model.
  std::map<std::uint64_t, NetSlot> net_slots_;  // keyed by ingress copy_seq
  std::uint64_t next_net_inject_seq_{1};
  std::uint64_t baseline_arrival_seq_{1};
  std::map<std::uint64_t, PacketTrace> live_traces_;

  // Disk device model (FIFO: requests complete in order).
  std::deque<DiskSlot> disk_slots_;

  // Output path.
  std::uint64_t out_seq_{0};
  std::uint64_t out_hash_chain_{0};
  std::vector<std::uint64_t> out_hashes_;

  // Peer tracking (throttle). The map counts the peers heard from; the
  // running max of its entries is what should_stall() compares against.
  std::map<std::uint32_t, std::int64_t> peer_virt_ns_;  // by machine id
  std::int64_t max_peer_virt_ns_{INT64_MIN};

  // Epoch resync state.
  std::uint64_t epoch_index_{0};
  RealTime epoch_start_local_{};
  struct EpochReports {
    std::map<std::uint32_t, net::EpochReport> by_machine;
  };
  std::map<std::uint64_t, EpochReports> epoch_reports_;
  /// virt_k(I): this replica's virtual time at the end of epoch k (recorded
  /// when the epoch report is emitted; consumed by the rebase).
  std::map<std::uint64_t, std::int64_t> epoch_end_virt_;

  double activity_ema_{0.0};

  GuestContextStats stats_;
};

}  // namespace stopwatch::hypervisor
