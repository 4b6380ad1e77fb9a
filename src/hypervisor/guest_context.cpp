#include "hypervisor/guest_context.hpp"

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"

namespace stopwatch::hypervisor {

namespace {
std::uint64_t mix_hash(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// PIT period: 250 Hz, as in the paper's guests.
constexpr std::int64_t kTimerPeriodNs = Duration::micros(4000).ns;
/// Initial virtual-clock slope (ns of virtual time per instruction).
constexpr double kInitialSlope = 1.0;

constexpr std::uint64_t kSliceStreamTag = 0x5117CE5ULL;
enum SliceRole : std::uint64_t { kIpsRole = 1, kPreemptRole = 2 };

Rng slice_stream(std::uint64_t seed, std::uint32_t vm, std::uint32_t replica,
                 SliceRole role) {
  std::uint64_t h = SplitMix64(seed ^ kSliceStreamTag).next();
  h = SplitMix64(h ^ vm).next();
  h = SplitMix64(h ^ replica).next();
  return Rng(SplitMix64(h ^ role).next());
}
}  // namespace

SliceStreams SliceStreams::derive(std::uint64_t seed, std::uint32_t vm,
                                  std::uint32_t replica) {
  return SliceStreams{slice_stream(seed, vm, replica, kIpsRole),
                      slice_stream(seed, vm, replica, kPreemptRole)};
}

GuestContext::GuestContext(VmId vm, ReplicaIndex replica, NodeId vm_addr,
                           Machine& machine, sim::Simulator& sim,
                           GuestContextConfig cfg,
                           std::unique_ptr<vm::GuestProgram> program,
                           std::uint64_t det_seed, SliceStreams streams,
                           ReplicaServices services)
    : vm_(vm),
      replica_(replica),
      vm_addr_(vm_addr),
      machine_(&machine),
      sim_(&sim),
      cfg_(cfg),
      services_(std::move(services)),
      streams_(std::move(streams)),
      policy_(make_policy(cfg.policy)),
      replicated_(policy_->replicated()),
      epoch_instr_(policy_->epoch_instructions()),
      max_gap_ns_(policy_->max_replica_gap().ns),
      clock_(policy_->clock_mode(), [m = machine_] { return m->local_clock(); }) {
  SW_EXPECTS(cfg_.replica_count >= 1);
  SW_EXPECTS(services_.send_frame != nullptr);
  if (replicated_ && cfg_.replica_count > 1) {
    SW_EXPECTS(services_.control_multicast != nullptr);
  }
  guest_ = std::make_unique<vm::GuestVm>(
      vm, vm_addr, std::move(program), det_seed,
      [this] { return clock_.now(guest_->instr()); });
  machine_->register_guest(this);
}

GuestContext::~GuestContext() = default;

void GuestContext::start(VirtTime start) {
  SW_EXPECTS(!running_);
  running_ = true;
  clock_.initialize(start, kInitialSlope);
  guest_->boot();

  last_exit_instr_ = 0;
  last_exit_clock_ns_ = clock_.now(0).ns;
  next_periodic_exit_ = kExitIntervalInstr;
  next_timer_tick_ns_ = last_exit_clock_ns_ + kTimerPeriodNs;
  epoch_start_local_ = machine_->local_clock();

  // Launch the beacon loop used for fastest-replica throttling. The loop
  // owns one arena slot for its whole life: each tick re-arms the same
  // event via reschedule_after instead of scheduling a fresh one.
  if (replicated_ && cfg_.replica_count > 1) {
    beacon_event_ = sim_->schedule_after(policy_->sync_interval(),
                                         [this] { beacon_tick(); });
  }

  machine_->plan();
}

void GuestContext::beacon_tick() {
  if (halted_) return;
  settle();
  net::SyncBeacon b;
  b.vm = vm_;
  b.machine = machine_->id();
  b.virt = VirtTime{last_exit_clock_ns_};
  b.instr = guest_->instr();
  services_.control_multicast(b, 64);
  sim_->reschedule_after(*beacon_event_, policy_->sync_interval());
}

void GuestContext::halt() {
  settle();
  halted_ = true;
  span_.clear();
  span_next_ = 0;
  machine_->plan();
}

VirtTime GuestContext::virt_now() const {
  settle();
  return clock_.now(guest_->instr());
}

vm::GuestProgram& GuestContext::program() {
  settle();
  machine_->cut(*this, /*in_flight=*/true);
  return guest_->program();
}

void GuestContext::begin_plan() {
  cursor_.activity = activity_ema_;
  if (!plannable()) return;
  if (in_flight()) {
    span_.front() = span_[span_next_];
    span_.front().preempt_mark = 0;
    span_.resize(1);
    span_next_ = 0;
  }
  // The guest's state is that of its last exit; the exit in flight, if
  // any, retires its slice's instructions from there.
  const std::uint64_t in_slice = in_flight() ? span_[0].instr - guest_->instr()
                                             : 0;
  const std::uint64_t boundary = guest_->instr_to_boundary();
  // What the guest's state says becomes due: outside access to the program
  // may have given it work or I/O since its last exit.
  const bool io = guest_->has_io_ops();
  cursor_.instr = in_flight() ? span_[0].instr : guest_->instr();
  cursor_.next_preempt =
      in_flight() ? span_[0].preempt_after : next_preempt_instr_;
  cursor_.chunk = in_slice >= boundary ? 0 : boundary - in_slice;
  cursor_.periodic = in_flight() ? cursor_.instr + kExitIntervalInstr
                                 : next_periodic_exit_;
  cursor_.jitter_draws = 0;
  cursor_.preempt_draws = 0;
  cursor_.busy = !guest_->is_idle();
  cursor_.due_clock = io ? INT64_MIN : next_due_clock_ns();
  cursor_.due_instr =
      epoch_instr_ > 0 ? (epoch_index_ + 1) * epoch_instr_ : UINT64_MAX;
}

void GuestContext::start_first_slice(const Machine::SliceModel& m,
                                     std::uint32_t seq) {
  plan_slice(m, sim_->now().ns, seq);
  // The slice starts now: it takes the draws it read ahead.
  jitter_draws_.pop(cursor_.jitter_draws);
  preempt_draws_.pop(cursor_.preempt_draws);
  cursor_.jitter_draws = 0;
  cursor_.preempt_draws = 0;
  span_.front().preempt_mark = 0;
}

std::int64_t GuestContext::next_due_clock_ns() const {
  std::int64_t due = std::min(next_timer_tick_ns_, guest_->next_timer_ns());
  if (!disk_slots_.empty()) due = std::min(due, disk_slots_.front().delivery);
  if (!net_slots_.empty()) {
    const auto it = net_slots_.find(next_net_inject_seq_);
    if (it != net_slots_.end() && it->second.have_pkt &&
        it->second.delivery.has_value()) {
      due = std::min(due, *it->second.delivery);
    }
  }
  if (replicated_ && cfg_.replica_count > 1 &&
      peer_virt_ns_.size() + 1 >=
          static_cast<std::size_t>(cfg_.replica_count)) {
    // should_stall() holds once the clock exceeds max peer + gap.
    const std::int64_t stall =
        max_peer_virt_ns_ > INT64_MAX - max_gap_ns_ - 1
            ? INT64_MAX
            : max_peer_virt_ns_ + max_gap_ns_ + 1;
    due = std::min(due, stall);
  }
  return due;
}

void GuestContext::truncate_after(const PlannedExit& last) {
  // Keep the exits up to `last`, and the first after it, in flight.
  std::size_t keep = span_next_;
  while (span_[keep].before(last)) {
    ++keep;
    SW_ASSERT(keep < span_.size());
  }
  span_.resize(keep + 1);
}

std::size_t GuestContext::first_due_exit() const {
  const std::int64_t due = next_due_clock_ns();
  std::size_t i = span_next_;
  while (i + 1 < span_.size() && span_[i].clock_ns < due) ++i;
  return i;
}

void GuestContext::run_quiet_exits(std::size_t end) {
  if (end == span_next_) return;
  // Only the last exit's values survive; the plan decayed the activity
  // exit by exit. A quiet exit ends no task, so whether the guest is busy
  // holds across them.
  const PlannedExit& last = span_[end - 1];
  const bool busy = !guest_->is_idle();
  if (busy) {
    guest_->advance(last.instr - guest_->instr());
  } else {
    guest_->advance_idle(last.instr - guest_->instr());
  }
  last_exit_instr_ = last.instr;
  last_exit_clock_ns_ = last.clock_ns;
  next_periodic_exit_ = last.instr + kExitIntervalInstr;
  activity_ema_ = last.activity;
  stats_.exits += end - span_next_;
  // Each exit starts the next slice, which takes one jitter draw and
  // perhaps a preemption draw.
  jitter_draws_.pop(end - span_next_);
  preempt_draws_.pop(span_[end].preempt_mark -
                     span_[span_next_].preempt_mark);
  span_next_ = end;
}

void GuestContext::run_last_exit() {
  guest_->advance(span_.back().instr - guest_->instr());
  next_preempt_instr_ = span_.back().preempt_after;
  span_.clear();
  span_next_ = 0;
  on_guest_exit();
}

void GuestContext::on_guest_exit() {
  ++stats_.exits;
  const std::uint64_t exit_instr = guest_->instr();
  last_exit_instr_ = exit_instr;
  last_exit_clock_ns_ = clock_.now(exit_instr).ns;
  next_periodic_exit_ = exit_instr + kExitIntervalInstr;

  if (guest_->has_io_ops()) process_io_ops();
  if (epoch_instr_ > 0) check_epoch(exit_instr);
  inject_due_interrupts();

  // Host-load bookkeeping (not guest-visible).
  update_activity(!guest_->is_idle());

  // The machine plans the next slice.
  if (replicated_ && should_stall()) enter_stall();
}

void GuestContext::process_io_ops() {
  for (auto& op : guest_->drain_io_ops()) {
    if (const auto* rd = std::get_if<vm::DiskReadOp>(&op)) {
      const RealTime done = machine_->schedule_disk_op(rd->bytes);
      DiskSlot slot;
      slot.request_id = rd->request_id;
      slot.physical_done = done;
      slot.read = true;
      slot.delivery = policy_->disk_delivery(
          last_exit_clock_ns_, done.ns + machine_->clock_offset().ns);
      disk_slots_.push_back(slot);
    } else if (const auto* wr = std::get_if<vm::DiskWriteOp>(&op)) {
      const RealTime done = machine_->schedule_disk_op(wr->bytes);
      DiskSlot slot;
      slot.request_id = wr->request_id;
      slot.physical_done = done;
      slot.read = false;
      slot.delivery = policy_->disk_delivery(
          last_exit_clock_ns_, done.ns + machine_->clock_offset().ns);
      disk_slots_.push_back(slot);
    } else if (auto* sp = std::get_if<vm::SendPacketOp>(&op)) {
      ++out_seq_;
      const std::uint64_t hash = sp->pkt.content_hash();
      out_hash_chain_ = mix_hash(out_hash_chain_, hash);
      if (services_.output_emitted) services_.output_emitted(hash);
      if (policy_->tunnels_output()) {
        net::Frame f;
        f.src = services_.machine_node;
        f.dst = services_.egress_node;
        f.size_bytes = sp->pkt.size_bytes + net::kHeaderBytes;  // tunneled
        net::TunneledOutput t;
        t.vm = vm_;
        t.replica = replica_;
        t.out_seq = out_seq_;
        t.content_hash = hash;
        t.pkt = sp->pkt;
        f.payload = t;
        services_.send_frame(std::move(f));
        ++stats_.outputs_tunneled;
      } else {
        net::Frame f;
        f.src = services_.machine_node;
        f.dst = sp->pkt.dst;
        f.size_bytes = sp->pkt.size_bytes;
        f.payload = net::GuestPacketPayload{sp->pkt};
        services_.send_frame(std::move(f));
      }
    }
  }
}

void GuestContext::inject_due_interrupts() {
  const std::int64_t now_ns = last_exit_clock_ns_;

  // PIT timer interrupts (virtual-time schedule; Sec. IV-B).
  while (next_timer_tick_ns_ <= now_ns) {
    guest_->inject_timer_tick();
    ++stats_.timer_injections;
    next_timer_tick_ns_ += kTimerPeriodNs;
  }

  // Guest soft timers (deterministic: driven by the guest clock). The
  // clock still reads now_ns here: a rebase in check_epoch() keeps the line
  // continuous at the exit instruction, and passthrough reads this instant.
  guest_->fire_due_timers(now_ns);

  // Disk/DMA completions, in request (FIFO) order.
  while (!disk_slots_.empty() && disk_slots_.front().delivery <= now_ns) {
    DiskSlot& slot = disk_slots_.front();
    if (policy_->deterministic_disk_deadline() &&
        sim_->now().ns < slot.physical_done.ns && !slot.late_counted) {
      // Δd was too small: the physical transfer has not finished by the
      // virtual delivery time. In the real system this replica would have
      // to be recovered from a peer (Sec. V footnote 4); here we count the
      // violation and proceed at the deterministic virtual deadline (the
      // delivered *contents* are deterministic either way), so the
      // experiment quantifies how often a deployment's Δd would have been
      // too small.
      slot.late_counted = true;
      ++stats_.divergence_disk_late;
    }
    if (tap_ != nullptr) {
      tap_->on_disk_injected(sim_->now() - slot.physical_done);
    }
    guest_->inject_disk_complete(slot.request_id);
    ++stats_.disk_deliveries;
    disk_slots_.pop_front();
  }

  // Network packets, in ingress copy_seq order.
  while (!net_slots_.empty()) {
    const auto it = net_slots_.find(next_net_inject_seq_);
    if (it == net_slots_.end()) break;
    NetSlot& slot = it->second;
    if (!slot.delivery.has_value() || !slot.have_pkt) break;
    if (*slot.delivery > now_ns) break;
    guest_->inject_net_packet(slot.pkt);
    ++stats_.net_deliveries;
    if (tap_ != nullptr) {
      tap_->on_net_injected(next_net_inject_seq_, now_ns, sim_->now());
    }
    net_slots_.erase(it);
    ++next_net_inject_seq_;
  }

  guest_->commit_injections();
}

bool GuestContext::should_stall() const {
  if (cfg_.replica_count <= 1) return false;
  if (peer_virt_ns_.size() + 1 <
      static_cast<std::size_t>(cfg_.replica_count)) {
    return false;  // not all peers known yet
  }
  // I am the fastest and my lead over the second-fastest exceeds the cap.
  return last_exit_clock_ns_ - max_peer_virt_ns_ > max_gap_ns_;
}

void GuestContext::enter_stall() {
  SW_ASSERT(!stalled_);
  stalled_ = true;
  stall_began_ = sim_->now();
  ++stats_.throttle_stalls;
  stall_event_ =
      sim_->schedule_after(Duration::micros(500), [this] { recheck_stall(); });
}

void GuestContext::recheck_stall() {
  if (halted_) return;
  if (should_stall()) {
    // Still the fastest replica: the recheck re-arms its own slot.
    sim_->reschedule_after(*stall_event_, Duration::micros(500));
    return;
  }
  stalled_ = false;
  stats_.total_stall_time += sim_->now() - stall_began_;
  machine_->plan();
}

void GuestContext::on_ingress_copy(const net::IngressCopy& copy) {
  SW_EXPECTS(replicated_);
  if (copy.vm != vm_) return;
  settle();
  NetSlot& slot = net_slots_[copy.copy_seq];
  slot.pkt = copy.pkt;
  slot.have_pkt = true;

  // Dom0 device-model processing before the proposal goes out; this is
  // where coresident load perturbs the proposal (and where StopWatch's
  // median protects: the perturbation affects only this replica's vote).
  const Duration processing =
      machine_->vmm_processing_delay(machine_->load_excluding(nullptr));
  const std::uint64_t seq = copy.copy_seq;
  sim_->schedule_after(processing, [this, seq] {
    if (halted_) return;
    settle();
    net::Proposal p;
    p.vm = vm_;
    p.copy_seq = seq;
    p.proposed_delivery =
        VirtTime{policy_->propose_delivery(last_exit_clock_ns_)};
    p.proposer = machine_->id();
    const auto it = net_slots_.find(seq);
    if (it != net_slots_.end()) {
      it->second.proposal_base = last_exit_clock_ns_;
    }
    services_.control_multicast(p, 96);
  });
}

void GuestContext::on_proposal(const net::Proposal& p) {
  SW_EXPECTS(replicated_);
  if (p.vm != vm_) return;
  settle();
  if (p.copy_seq < next_net_inject_seq_) return;  // already delivered
  NetSlot& slot = net_slots_[p.copy_seq];
  if (slot.delivery.has_value()) return;
  slot.proposals[p.proposer.value] = p.proposed_delivery.ns;
  if (slot.proposals.size() <
      static_cast<std::size_t>(cfg_.replica_count)) {
    return;
  }

  // All proposals in: combine per the policy's aggregation rule (median of
  // the replicas' votes in the paper).
  std::int64_t median = policy_->combine_proposals(slot.proposals);
  const std::int64_t margin = median - last_exit_clock_ns_;
  if (margin < 0) {
    // The chosen median already passed on this replica: synchrony violated
    // (Sec. V footnote 4). Deliver as soon as possible and count it.
    ++stats_.divergence_median_passed;
    median = last_exit_clock_ns_;
  }
  slot.delivery = median;
  if (tap_ != nullptr) {
    tap_->on_delivery_chosen(p.copy_seq, slot.proposals, median, margin);
  }
  // The votes are spent. The slot itself waits for its delivery time, and
  // a replica that lags (StopWatch paces only the two fastest) holds
  // hundreds of them.
  slot.proposals.clear();
  machine_->cut(*this);
}

void GuestContext::on_sync_beacon(const net::SyncBeacon& b) {
  if (b.vm != vm_) return;
  if (b.machine == machine_->id()) return;  // self-delivery
  settle();
  const std::size_t known = peer_virt_ns_.size();
  auto& v = peer_virt_ns_[b.machine.value];
  v = std::max(v, b.virt.ns);
  // From the entry, not the beacon: a first beacon below the entry's
  // default 0 still counts as 0.
  max_peer_virt_ns_ = std::max(max_peer_virt_ns_, v);
  // A raised maximum only delays a stall; a completed peer set can start
  // one.
  if (peer_virt_ns_.size() != known &&
      peer_virt_ns_.size() + 1 >=
          static_cast<std::size_t>(cfg_.replica_count)) {
    machine_->cut(*this);
  }
}

void GuestContext::on_epoch_report(const net::EpochReport& r) {
  if (r.vm != vm_) return;
  settle();
  epoch_reports_[r.epoch].by_machine[r.machine.value] = r;
}

void GuestContext::on_direct_packet(const net::Packet& pkt) {
  SW_EXPECTS(!replicated_);
  settle();
  const Duration processing =
      machine_->vmm_processing_delay(machine_->load_excluding(nullptr));
  const std::uint64_t seq = baseline_arrival_seq_++;
  NetSlot slot;
  slot.pkt = pkt;
  slot.have_pkt = true;
  slot.delivery = policy_->direct_delivery(
      (sim_->now() + processing).ns + machine_->clock_offset().ns,
      last_exit_clock_ns_);
  net_slots_.emplace(seq, std::move(slot));
  machine_->cut(*this);
}

void GuestContext::check_epoch(std::uint64_t exit_instr) {
  const std::uint64_t boundary = (epoch_index_ + 1) * epoch_instr_;
  if (exit_instr < boundary) return;

  // Apply the update derived from the *previous* epoch's reports. Doing it
  // exactly when the next boundary is crossed gives all replicas the same
  // (instruction-indexed) application point.
  if (epoch_index_ >= 1) {
    const std::uint64_t prev = epoch_index_ - 1;
    const auto it = epoch_reports_.find(prev);
    if (it == epoch_reports_.end() ||
        it->second.by_machine.size() <
            static_cast<std::size_t>(cfg_.replica_count)) {
      ++stats_.divergence_epoch_missing;
    } else {
      // Median report by R_k; D* comes from the same machine (Sec. IV-A).
      std::vector<net::EpochReport> reports;
      for (const auto& [machine, rep] : it->second.by_machine) {
        reports.push_back(rep);
      }
      std::sort(reports.begin(), reports.end(),
                [](const net::EpochReport& a, const net::EpochReport& b) {
                  return a.r_k.ns < b.r_k.ns;
                });
      const net::EpochReport& med = reports[(reports.size() - 1) / 2];
      // Paper Sec. IV-A: slope_{k+1} = clamp((R*_k - virt_k(I) + D*_k) / I).
      const auto end_it = epoch_end_virt_.find(prev);
      SW_ASSERT(end_it != epoch_end_virt_.end());
      const double virt_at_epoch_end = static_cast<double>(end_it->second);
      const double candidate =
          (static_cast<double>(med.r_k.ns) - virt_at_epoch_end +
           static_cast<double>(med.d_k.ns)) /
          static_cast<double>(epoch_instr_);
      const double slope = policy_->epoch_slope(candidate);
      clock_.rebase(exit_instr, slope);
      ++stats_.epoch_rebase_count;
    }
    epoch_reports_.erase(prev);
    epoch_end_virt_.erase(prev);
  }

  // Emit this epoch's report.
  epoch_end_virt_[epoch_index_] = clock_.at_instr(exit_instr).ns;
  if (cfg_.replica_count > 1 && services_.control_multicast) {
    net::EpochReport rep;
    rep.vm = vm_;
    rep.machine = machine_->id();
    rep.epoch = epoch_index_;
    rep.d_k = machine_->local_clock() - epoch_start_local_;
    rep.r_k = machine_->local_clock();
    services_.control_multicast(rep, 96);
  }
  epoch_start_local_ = machine_->local_clock();
  ++epoch_index_;
}

}  // namespace stopwatch::hypervisor
