// The per-replica VMM driver — StopWatch's modified hypervisor + QEMU
// device models (paper Secs. IV-V), one instance per (guest VM, replica).
//
// Responsibilities:
//  * execution engine: runs the guest in instruction slices whose real
//    duration reflects host speed, contention, and jitter; every slice ends
//    in a guest-caused VM exit (periodic, or at a trapping I/O instruction);
//  * the guest clock and PIT timer-interrupt injection (Sec. IV-B);
//    the exit interval (GuestContext::kExitIntervalInstr), the 250 Hz PIT
//    period and the initial clock slope are fixed model parameters;
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
//  * divergence detection (synchrony violations), kept as counters;
//  * telling an installed DeliveryTap each delivery decision, the only
//    per-packet record a replica keeps (none when no tap is installed).
//
// Every policy-dependent decision is delegated to the MitigationPolicy
// built from GuestContextConfig::policy (see hypervisor/policy.hpp): under
// PolicyKind::kBaselineXen the same machinery emulates unmodified Xen —
// the guest clock passes through machine-local real time, and interrupts
// are delivered as soon as Dom0 has processed them — which is exactly what
// leaks coresident-victim activity.
//
// Spans. Interrupts are injected only at guest exits, and guest code runs
// only at the exit that ends a task, so at an exit where no interrupt is
// due and no task ends nothing guest-visible happens. Such a *quiet* exit
// only decays the guest's activity and starts its next slice. The Machine
// therefore plans its guests' exits together (machine.cpp), with one
// simulator event (Tie::kExit) at the end of the plan:
//  * It merges the guests' exits in time order, same-nanosecond exits in
//    the order their slices started (the kernel's order for one event per
//    exit). At each quiet exit it decays that guest's activity and starts
//    its next slice, which reads the coresident load as it stands at that
//    instant. GuestContext keeps the per-slice arithmetic and draws.
//  * The plan ends at the first exit of any guest that reaches a PIT
//    tick, a guest soft timer, a disk or net delivery, an epoch boundary,
//    the end of a busy guest's current task, queued I/O or a stall, or at
//    one PIT period of real time past the plan's start (the bound). That
//    exit runs in full; the other guests' slices in flight at that point
//    start the next plan. Beside a LoadSource that is not a GuestContext
//    every plan ends at its first exit (see LoadSource).
//  * Settle: every entry point, internal event and state accessor first
//    runs the planned exits of every guest on the machine that lie in the
//    past, exactly as their events would have. At time t that is every
//    exit strictly before t (exits at t run after ordinary events, per
//    Tie::kExit), and the exits at t too once a run_until() has ended at t
//    (Simulator::now_closed()). So a read between step() calls at t
//    leaves the exits at t to the inputs still queued there, and an input
//    scheduled at t after a run ended there finds them done.
//  * Cut: an input that changes what becomes due (a proposal completing
//    a delivery, a direct packet, a beacon that completes the peer set)
//    ends the whole plan at the guest's first planned exit where something
//    is now due, at the earliest its exit in flight, whose time was fixed
//    when its slice started; the exit event moves there. Outside access to
//    the guest program ends it at the exit in flight, and a change of the
//    machine's load inputs at the first exit in flight of any guest.
//    Co-residents' slices that started before the new end keep their
//    fixed durations.
//  * Draws: each slice's IPS jitter and preemption draw come from the
//    replica's own streams, taken ahead into queues a block at a time
//    when planned (the jitter's normals first, then their exponentials),
//    and popped together by the run of quiet exits that starts their
//    slices, so draws a cut left unused serve the next plan in stream
//    order. The plan also records each quiet exit's decayed activity, so
//    running a run of quiet exits costs the same whatever its length.
// A run with spans is therefore identical, exit for exit, to one where
// every exit is its own event.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <type_traits>
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

/// The per-replica settings. core::Cloud fills both fields from the
/// CloudConfig fields of the same names.
struct GuestContextConfig {
  /// Mitigation-policy selection + per-policy knobs (StopWatch's Δn/Δd,
  /// aggregation rule, throttle gap, epoch resync, ... live in
  /// policy.stopwatch; see hypervisor/policy.hpp).
  PolicyConfig policy{};
  /// Replicas per guest VM (3 in the paper; 5 hardens against Sec. IX).
  /// Forced to 1 by non-replicated policies.
  int replica_count{3};
};

/// Divergence and delivery counters (per replica).
struct GuestContextStats {
  /// Guest-caused VM exits run (quiet ones included).
  std::uint64_t exits{0};
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
};
// A guest with no delivery tap keeps counters only: nothing here grows
// with the run.
static_assert(std::is_trivially_copyable_v<GuestContextStats>);

/// Observer of one replica's device-model decisions, installed with
/// GuestContext::set_delivery_tap: what a scenario or test reads per
/// packet or disk completion. It runs on the replica's own core. Times
/// are on the guest clock (virtual under StopWatch) unless named real.
class DeliveryTap {
 public:
  virtual ~DeliveryTap() = default;
  /// Inbound packet `copy_seq`'s delivery time was chosen from
  /// `proposals` (proposed delivery by proposer machine id): `delivery_ns`,
  /// and `margin_ns`, the combined proposal minus the guest clock before
  /// a negative margin is clamped to deliver at once.
  virtual void on_delivery_chosen(
      std::uint64_t /*copy_seq*/,
      const std::map<std::uint32_t, std::int64_t>& /*proposals*/,
      std::int64_t /*delivery_ns*/, std::int64_t /*margin_ns*/) {}
  /// Packet `copy_seq` was injected at guest clock `clock_ns`, real time
  /// `real`.
  virtual void on_net_injected(std::uint64_t /*copy_seq*/,
                               std::int64_t /*clock_ns*/, RealTime /*real*/) {}
  /// A disk completion was injected `slack` of real time after its
  /// physical transfer finished (negative: the deadline beat the
  /// hardware).
  virtual void on_disk_injected(Duration /*slack*/) {}
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
  /// Told each emitted guest packet's content hash, in emission order,
  /// for the cloud's replica-determinism check (may be null).
  std::function<void(std::uint64_t content_hash)> output_emitted;
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

  /// Out of line: the device models' map destructors are then compiled
  /// here alone (inlined into the cloud's destructor at -O3 they added
  /// ~70 KB of text to stopwatch_bench).
  ~GuestContext() override;
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
  /// Installs (or, with nullptr, removes) the observer of this replica's
  /// deliveries. The caller keeps it alive while the guest runs.
  void set_delivery_tap(DeliveryTap* tap) { tap_ = tap; }
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
  [[nodiscard]] double activity() const override {
    settle();
    return activity_ema_;
  }

 private:
  friend class Machine;

  /// Guest-caused VM exits occur at least every this many instructions.
  static constexpr std::uint64_t kExitIntervalInstr = 100'000;

  /// One planned exit: the end of one slice.
  struct PlannedExit {
    std::int64_t at_ns;  // real time of the exit
    std::int64_t clock_ns;  // guest clock at the exit
    std::uint64_t instr;  // guest instructions retired at the exit
    /// The instruction count at or past which the next slice to start
    /// loses the core (next_preempt_instr_ after this exit).
    std::uint64_t preempt_after;
    /// activity_ema_ after this exit, set when the plan finds it quiet.
    double activity;
    /// The machine-wide start order of the slice: same-nanosecond exits
    /// run in this order. It wraps; the exits one plan compares started
    /// far fewer than 2^31 slices apart.
    std::uint32_t seq;
    /// The preemption draws the plan has read ahead for its slices up to
    /// this one (PlanCursor::preempt_draws): the slices started by a run
    /// of quiet exits took the difference of two marks.
    std::uint32_t preempt_mark;
    /// Whether this exit runs before `o` on the machine.
    [[nodiscard]] bool before(const PlannedExit& o) const {
      return at_ns != o.at_ns ? at_ns < o.at_ns
                              : static_cast<std::int32_t>(seq - o.seq) < 0;
    }
  };

  /// The guest's state at the end of its last planned exit, while the
  /// machine extends a plan.
  struct PlanCursor {
    std::uint64_t instr;  // instructions retired at the exit
    std::uint64_t next_preempt;  // PlannedExit::preempt_after of the exit
    std::uint64_t chunk;  // left of the task (or idle chunk) in progress
    std::uint64_t periodic;  // instruction count of the next periodic exit
    std::size_t jitter_draws;  // draws read ahead for unstarted slices
    std::uint32_t preempt_draws;
    double activity;  // activity_ema_ after the planned exits
    bool busy;  // !is_idle(), constant over quiet exits
    std::int64_t due_clock;  // next_due_clock_ns(); INT64_MIN with I/O queued
    std::uint64_t due_instr;  // the next epoch boundary
  };

  /// Draws from one stream, taken ahead of the slices that use them. A
  /// plan reads ahead, drawing a block at a time past the queued ones; the
  /// exits that start slices pop their draws together; a cut leaves the
  /// unused draws queued. The streams have no other reader, so how far
  /// ahead they are drawn moves no value.
  class DrawQueue {
   public:
    /// Draws per refill: enough that the sampler's calls run back to back
    /// instead of between slice computations, few enough (256 bytes) that
    /// the draws a guest takes ahead stay in cache.
    static constexpr std::size_t kBlock = 32;
    /// Popped draws are dropped once this many have accumulated. Read
    /// ahead by blocks, the queue seldom drains to empty, so its buffer
    /// grows to this point plus what a plan reads ahead.
    static constexpr std::size_t kDropAt = 4 * kBlock;

    /// The draw `i` places past the next one to pop. `fill(out, k)` writes
    /// the stream's next `k` draws to `out`.
    template <typename Fill>
    double ahead(std::size_t i, Fill&& fill) {
      while (head_ + i >= buf_.size()) [[unlikely]] {
        const std::size_t end = buf_.size();
        buf_.resize(end + kBlock);
        fill(buf_.data() + end, kBlock);
      }
      return buf_[head_ + i];
    }
    /// Pops the next `n` draws.
    void pop(std::size_t n) {
      head_ += n;
      SW_ASSERT(head_ <= buf_.size());
      if (head_ == buf_.size()) {
        buf_.clear();
        head_ = 0;
      } else if (head_ >= kDropAt) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
    }

   private:
    std::vector<double> buf_;
    std::size_t head_{0};
  };

  // Execution engine; the Machine drives the plan (see "Spans").
  /// Whether the guest runs slices (started, not halted, not stalled).
  [[nodiscard]] bool plannable() const {
    return running_ && !halted_ && !stalled_;
  }
  /// Whether a started slice has not reached its exit yet.
  [[nodiscard]] bool in_flight() const { return span_next_ < span_.size(); }
  /// Keeps only the exit in flight, if any, and sets the cursor from it
  /// (only the activity for a guest that runs no slices).
  void begin_plan();
  /// Plans the slice that starts at `start_ns` after the cursor's exit,
  /// under the coresident load of `m`, and moves the cursor to its end.
  void plan_slice(const Machine::SliceModel& m, std::int64_t start_ns,
                  std::uint32_t seq);
  /// Plans and starts the slice of a guest without an exit in flight,
  /// under the coresident load set in `m`.
  void start_first_slice(const Machine::SliceModel& m, std::uint32_t seq);
  /// Extends the plan while the last planned exit is quiet (before
  /// `t_bound`) and runs before `horizon`, the other guests' earliest
  /// (null: none), taking start orders from `seq`. The coresident load,
  /// set in `m`, is constant meanwhile: only this guest's exits run.
  /// Returns false at an exit that is not quiet, which ends the machine's
  /// plan.
  bool extend(const Machine::SliceModel& m, const PlannedExit* horizon,
              std::int64_t t_bound, std::uint32_t& seq);
  // plan_slice() and extend() are defined below the class, so that the
  // machine's merge (machine.cpp) runs them without a call: on a machine
  // with co-resident guests a merge step often covers a single exit.
  /// Keeps the planned exits up to `last` (another guest's, or its own)
  /// and the first one after it, which stays in flight.
  void truncate_after(const PlannedExit& last);
  /// The index of the first planned exit not yet run where something is
  /// now due (the last planned one if none).
  [[nodiscard]] std::size_t first_due_exit() const;
  /// Runs the quiet exits span_[span_next_, end): what on_guest_exit()
  /// does at each when nothing is due, and the start of the next slice.
  void run_quiet_exits(std::size_t end);
  /// Runs the quiet exits that lie at or before `limit_ns`.
  void settle_to(std::int64_t limit_ns) {
    std::size_t end = span_next_;
    while (end + 1 < span_.size() && span_[end].at_ns <= limit_ns) ++end;
    run_quiet_exits(end);
  }
  /// Runs the last planned exit, which ends the machine's plan, in full.
  /// The machine has run every quiet exit before it.
  void run_last_exit();
  /// Settles the machine to now() (see the header comment). Logically
  /// const: it runs exits that already happened in simulated time.
  void settle() const { machine_->settle(); }
  /// Guest clock at which the earliest pending PIT tick, guest timer,
  /// disk or net delivery becomes due, or a stall begins.
  [[nodiscard]] std::int64_t next_due_clock_ns() const;
  [[nodiscard]] static double decayed(double activity, bool busy) {
    return 0.98 * activity + 0.02 * (busy ? 1.0 : 0.0);
  }
  void update_activity(bool busy) {
    activity_ema_ = decayed(activity_ema_, busy);
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
    /// Proposals received so far, keyed by proposer machine; emptied once
    /// `delivery` is chosen from them.
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
  /// The planned exits: span_[span_next_] is the first not yet run (its
  /// slice has started), and span_.back() either ends the machine's plan
  /// or is in flight past its end.
  std::vector<PlannedExit> span_;
  std::size_t span_next_{0};
  PlanCursor cursor_{};
  DrawQueue jitter_draws_;
  DrawQueue preempt_draws_;
  /// Periodic timers each own one simulator arena slot for their lifetime
  /// (re-armed in place via Simulator::reschedule_after; the handles stay
  /// valid across re-arms, so halt() can still cancel them). The Machine
  /// owns the exit event.
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

  // Disk device model (FIFO: requests complete in order).
  std::deque<DiskSlot> disk_slots_;

  // Output path.
  std::uint64_t out_seq_{0};
  std::uint64_t out_hash_chain_{0};

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
  DeliveryTap* tap_{nullptr};
};

[[gnu::always_inline]] inline void GuestContext::plan_slice(
    const Machine::SliceModel& m, std::int64_t start_ns, std::uint32_t seq) {
  PlanCursor& c = cursor_;
  // An idle chunk that ended at a quiet exit restarts.
  if (c.chunk == 0) c.chunk = vm::GuestVm::kIdleChunkInstr;
  const std::uint64_t cur = c.instr;
  SW_ASSERT(c.periodic > cur);
  const std::uint64_t n = std::min(c.chunk, c.periodic - cur);
  const double jitter =
      jitter_draws_.ahead(c.jitter_draws++, [&](double* out, std::size_t k) {
        machine_->ips_jitter(streams_.ips, out, k);
      });
  auto run_time =
      Duration::from_seconds_f(static_cast<double>(n) / m.ips(jitter)) +
      m.exit_overhead;
  // Periodic loss of the physical core to coresident load (vCPU
  // scheduling).
  if (cur >= c.next_preempt) {
    if (m.preempts) {
      run_time += m.preemption_wait(preempt_draws_.ahead(
          c.preempt_draws++, [&](double* out, std::size_t k) {
            for (std::size_t j = 0; j < k; ++j) {
              out[j] = streams_.preempt.exponential(1.0);
            }
          }));
    }
    c.next_preempt = cur + m.preempt_interval_instr;
  }
  const std::int64_t t = start_ns + run_time.ns;
  c.instr = cur + n;
  const std::int64_t clock =
      clock_.at(c.instr, RealTime{t} + m.clock_offset).ns;
  span_.push_back(
      {t, clock, c.instr, c.next_preempt, 0.0, seq, c.preempt_draws});
  c.chunk -= n;
  c.periodic = c.instr + kExitIntervalInstr;
}

[[gnu::always_inline]] inline bool GuestContext::extend(
    const Machine::SliceModel& m, const PlannedExit* horizon,
    std::int64_t t_bound, std::uint32_t& seq) {
  PlanCursor& c = cursor_;
  std::uint32_t s = seq;
  bool quiet = true;
  for (;;) {
    PlannedExit& e = span_.back();
    if (horizon != nullptr && !e.before(*horizon)) break;
    // A busy guest's task ends, and runs guest code, where its chunk does.
    quiet = e.clock_ns < c.due_clock && e.instr < c.due_instr &&
            !(c.busy && c.chunk == 0) && e.at_ns < t_bound;
    if (!quiet) break;
    c.activity = decayed(c.activity, c.busy);
    e.activity = c.activity;
    plan_slice(m, e.at_ns, s++);
  }
  seq = s;
  return quiet;
}

}  // namespace stopwatch::hypervisor
