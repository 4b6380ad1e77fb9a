#include "vm/guest.hpp"

#include <utility>

#include "common/contracts.hpp"

namespace stopwatch::vm {

GuestVm::GuestVm(VmId id, NodeId self_addr,
                 std::unique_ptr<GuestProgram> program, std::uint64_t det_seed,
                 std::function<VirtTime()> clock)
    : id_(id),
      self_addr_(self_addr),
      program_(std::move(program)),
      det_rng_(det_seed),
      clock_(std::move(clock)) {
  SW_EXPECTS(program_ != nullptr);
  SW_EXPECTS(clock_ != nullptr);
}

void GuestVm::boot() {
  SW_EXPECTS(!booted_);
  booted_ = true;
  program_->on_boot(*this);
  ensure_runnable();
}

std::uint64_t GuestVm::instr_to_boundary() const {
  SW_EXPECTS(!run_queue_.empty());
  return run_queue_.front().remaining;
}

void GuestVm::ensure_runnable() {
  if (run_queue_.empty()) {
    run_queue_.push_back(Task{kIdleChunkInstr, nullptr, true});
  }
}

void GuestVm::advance(std::uint64_t n) {
  SW_EXPECTS(booted_);
  SW_EXPECTS(staged_handlers_.empty());  // commit_injections() before running
  SW_EXPECTS(!run_queue_.empty());
  SW_EXPECTS(n >= 1 && n <= run_queue_.front().remaining);
  instr_ += n;
  Task& task = run_queue_.front();
  task.remaining -= n;
  if (task.remaining != 0) return;
  if (task.idle && only_task()) {
    // A finished idle chunk alone in the queue: popping it and letting
    // ensure_runnable() push a fresh one is exactly this reset.
    task.remaining = kIdleChunkInstr;
    return;
  }
  // Move the completion out before popping: it may enqueue tasks.
  auto done = std::move(task.on_complete);
  run_queue_.pop_front();
  if (done) done();
  ensure_runnable();
}

void GuestVm::advance_idle(std::uint64_t n) {
  SW_EXPECTS(booted_ && is_idle());
  Task& chunk = run_queue_.front();
  const std::uint64_t done =
      (kIdleChunkInstr - chunk.remaining + n) % kIdleChunkInstr;
  chunk.remaining = kIdleChunkInstr - done;
  instr_ += n;
}

void GuestVm::stage_handler(std::uint64_t cost, std::function<void()> body) {
  staged_handlers_.push_back(Task{cost, std::move(body), false});
}

void GuestVm::commit_injections() {
  // Handlers preempt queued work (but not partially executed instructions —
  // injection only happens at VM exits, which are instruction boundaries
  // for the current slice). Reverse push_front preserves injection order.
  for (auto it = staged_handlers_.rbegin(); it != staged_handlers_.rend();
       ++it) {
    run_queue_.push_front(std::move(*it));
  }
  staged_handlers_.clear();
}

void GuestVm::inject_timer_tick() {
  ++counters_.timer_ticks;
  const std::uint64_t tick = ++timer_tick_count_;
  stage_handler(kIrqHandlerInstr,
                [this, tick] { program_->on_timer_tick(*this, tick); });
}

void GuestVm::inject_net_packet(const net::Packet& pkt) {
  ++counters_.net_interrupts;
  stage_handler(kIrqHandlerInstr,
                [this, pkt] { program_->on_packet(*this, pkt); });
}

void GuestVm::inject_disk_complete(std::uint64_t request_id) {
  ++counters_.disk_interrupts;
  stage_handler(kIrqHandlerInstr, [this, request_id] {
    const auto it = disk_waiters_.find(request_id);
    SW_ASSERT(it != disk_waiters_.end());
    auto done = std::move(it->second);
    disk_waiters_.erase(it);
    if (done) done();
  });
}

void GuestVm::fire_due_timers(std::int64_t now_ns) {
  while (!timers_.empty() && timers_.begin()->first <= now_ns) {
    auto cb = std::move(timers_.begin()->second);
    timers_.erase(timers_.begin());
    // Timer callbacks run as (cheap) softirq-like handlers.
    stage_handler(500, std::move(cb));
  }
}

std::vector<GuestIoOp> GuestVm::drain_io_ops() {
  std::vector<GuestIoOp> out;
  out.swap(pending_io_);
  return out;
}

void GuestVm::compute(std::uint64_t instr, std::function<void()> done) {
  SW_EXPECTS(instr >= 1);
  run_queue_.push_back(Task{instr, std::move(done), false});
  // Drop a pending idle chunk so new work starts at the next boundary.
  if (run_queue_.size() >= 2 && run_queue_.front().idle &&
      run_queue_.front().remaining == kIdleChunkInstr) {
    run_queue_.pop_front();
  }
}

void GuestVm::disk_read(std::uint32_t bytes, std::function<void()> done) {
  const std::uint64_t id = next_disk_request_++;
  disk_waiters_.emplace(id, std::move(done));
  pending_io_.push_back(DiskReadOp{id, bytes});
  ++counters_.disk_requests;
}

void GuestVm::disk_write(std::uint32_t bytes, std::function<void()> done) {
  const std::uint64_t id = next_disk_request_++;
  disk_waiters_.emplace(id, std::move(done));
  pending_io_.push_back(DiskWriteOp{id, bytes});
  ++counters_.disk_requests;
}

void GuestVm::send_packet(net::Packet pkt) {
  pkt.src = self_addr_;
  pending_io_.push_back(SendPacketOp{pkt});
  ++counters_.packets_sent;
}

void GuestVm::set_timer(Duration delay, std::function<void()> cb) {
  SW_EXPECTS(cb != nullptr);
  if (delay.ns < 0) delay.ns = 0;
  timers_.emplace(clock_().ns + delay.ns, std::move(cb));
}

}  // namespace stopwatch::vm
