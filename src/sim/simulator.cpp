#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/contracts.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace stopwatch::sim {

namespace {
/// Rotates `v` right by `r` (r in [0, 63]); bit i of the result is bit
/// (i + r) mod 64 of `v` — the rotated occupancy scan used to find the next
/// pending wheel slot at or after the cursor position.
inline std::uint64_t rotr64(std::uint64_t v, unsigned r) {
  return std::rotr(v, static_cast<int>(r));
}
}  // namespace

EventId Simulator::schedule_at(RealTime at, Task cb, Tie tie) {
  SW_EXPECTS(at.ns >= now_.ns);
  return schedule_impl(at.ns, std::move(cb), tie);
}

EventId Simulator::schedule_after(Duration delay, Task cb, Tie tie) {
  if (delay.ns < 0) delay.ns = 0;
  return schedule_impl(now_.ns + delay.ns, std::move(cb), tie);
}

EventId Simulator::schedule_impl(std::int64_t at_ns, Task&& cb, Tie tie) {
  SW_EXPECTS(cb != nullptr);
  const std::uint32_t slot = alloc_slot();
  Record& rec = record(slot);
  rec.task = std::move(cb);
  rec.at_ns = at_ns;
  rec.seq = take_seq(tie == Tie::kExit ? kExitBit : 0);
  place(slot, rec);
  ++live_;
  if (live_ > stats_.max_live) stats_.max_live = live_;
  ++stats_.scheduled;
  return EventId{slot, rec.gen};
}

EventId Simulator::reschedule_after(EventId id, Duration delay) {
  if (delay.ns < 0) delay.ns = 0;
  ++stats_.rescheduled;
  if (is_executing(id)) {
    // Re-arm the running event: its Task stays in its pinned slot, which
    // execute_top() refiles at the new time after the callback returns.
    rearm_at_ns_ = now_.ns + delay.ns;
    return id;
  }
  SW_EXPECTS(is_scheduled(id));
  Record& rec = record(id.slot);
  if (rec.where == Where::kWheel) {
    wheel_unlink(id.slot);
  } else {
    due_erase(rec);
  }
  rec.at_ns = now_.ns + delay.ns;
  // Retime = new position in the equal-time order of its class.
  rec.seq = take_seq(rec.seq);
  place(id.slot, rec);
  return id;
}

bool Simulator::cancel(EventId id) {
  if (is_executing(id)) {
    // The event already fired; the only thing left to revoke is a re-arm.
    const bool had_rearm = rearm_at_ns_ != kNoRearm;
    rearm_at_ns_ = kNoRearm;
    return had_rearm;
  }
  if (id.slot >= slab_size_) return false;
  Record& rec = record(id.slot);
  if (rec.gen != id.gen || rec.where == Where::kFree) return false;
  if (rec.where == Where::kWheel) {
    wheel_unlink(id.slot);
  } else {
    due_erase(rec);
  }
  free_slot(id.slot);
  --live_;
  ++stats_.cancelled;
  return true;
}

std::uint32_t Simulator::alloc_slot() {
  if (free_head_ != kNil) {
    const std::uint32_t slot = free_head_;
    free_head_ = record(slot).next;
    return slot;
  }
  SW_ASSERT(slab_size_ < kNil);
  if (slab_size_ == chunks_.size() << kChunkBits) {
    // Default-initialized (not value-initialized): Record's field
    // initializers run but the 48-byte inline Task buffer is left untouched
    // — a fresh chunk costs header writes, not a 24 KiB memset.
    chunks_.push_back(
        std::make_unique_for_overwrite<Record[]>(std::size_t{1}
                                                 << kChunkBits));
    ++stats_.arena_chunks;
    // Piggyback the due array's initial reservation on the (rare) chunk
    // allocation so steady-state pushes never reallocate in small steps.
    if (due_.capacity() < kSlotsPerLevel) due_.reserve(kSlotsPerLevel);
  }
  return static_cast<std::uint32_t>(slab_size_++);
}

void Simulator::free_slot(std::uint32_t slot) {
  Record& rec = record(slot);
  rec.task.reset();
  ++rec.gen;  // stale handles now miss
  rec.where = Where::kFree;
  // Free slots chain through their own `next` field: recycling costs two
  // writes and no container.
  rec.next = free_head_;
  free_head_ = slot;
}

void Simulator::place(std::uint32_t slot, Record& rec) {
  const std::int64_t tick = rec.at_ns >> kTickShift;
  const std::int64_t delta = tick - cur_tick_;
  if (delta <= 0) {
    // At or behind the cursor (including "later this tick"): executable
    // order is decided by the due array's (time, seq) key.
    rec.where = Where::kDue;
    ++stats_.placed_due;
    due_push_entry(DueEntry{rec.at_ns, rec.seq, slot});
    return;
  }
  ++stats_.placed_wheel;
  int level = 0;
  while (delta >= (std::int64_t{1} << (kLevelBits * (level + 1)))) ++level;
  const auto bucket = static_cast<std::uint32_t>(
      (tick >> (kLevelBits * level)) & kSlotMask);
  wheel_link(slot, rec, level, bucket);
}

void Simulator::wheel_link(std::uint32_t slot, Record& rec, int level,
                           std::uint32_t bucket) {
  rec.where = Where::kWheel;
  rec.level = static_cast<std::uint8_t>(level);
  rec.bucket = static_cast<std::uint8_t>(bucket);
  std::uint32_t& head =
      bucket_head_[static_cast<std::size_t>(level) * kSlotsPerLevel + bucket];
  rec.prev = kNil;
  rec.next = head;
  if (head != kNil) record(head).prev = slot;
  head = slot;
  bitmap_[level] |= std::uint64_t{1} << bucket;
}

void Simulator::wheel_unlink(std::uint32_t slot) {
  Record& rec = record(slot);
  SW_ASSERT(rec.where == Where::kWheel);
  std::uint32_t& head =
      bucket_head_[static_cast<std::size_t>(rec.level) * kSlotsPerLevel +
                   rec.bucket];
  if (rec.prev != kNil) {
    record(rec.prev).next = rec.next;
  } else {
    head = rec.next;
  }
  if (rec.next != kNil) record(rec.next).prev = rec.prev;
  if (head == kNil) {
    bitmap_[rec.level] &= ~(std::uint64_t{1} << rec.bucket);
  }
  rec.prev = rec.next = kNil;
}

void Simulator::due_pop() {
  if (++due_head_ == due_.size()) {
    due_.clear();
    due_head_ = 0;
  }
}

void Simulator::due_push_entry(const DueEntry& e) {
  if (due_empty() || Earlier{}(due_.back(), e)) {
    due_.push_back(e);  // in-order append keeps the array sorted
  } else {
    // Out-of-order push: it sorts ahead of harvested entries. The front
    // search may have moved the cursor far ahead of now(), and every push
    // below the back lands here until the array drains; shedding the
    // consumed prefix first keeps the array at its live entries plus the
    // pops since the last insert.
    due_.erase(due_.begin(),
               due_.begin() + static_cast<std::ptrdiff_t>(due_head_));
    due_head_ = 0;
    due_.insert(std::upper_bound(due_.begin(), due_.end(), e, Earlier{}), e);
  }
  if (due_.size() > stats_.max_due) stats_.max_due = due_.size();
}

void Simulator::due_erase(const Record& rec) {
  const auto first = due_.begin() + static_cast<std::ptrdiff_t>(due_head_);
  const DueEntry key{rec.at_ns, rec.seq, 0};
  const auto it = std::lower_bound(first, due_.end(), key, Earlier{});
  SW_ASSERT(it != due_.end() && it->seq == rec.seq);
  if (it == first) {
    due_pop();
  } else {
    due_.erase(it);
  }
}

bool Simulator::prepare_next() {
  while (due_empty()) {
    if (live_ == 0) return false;
    advance_wheel();
  }
  return true;
}

std::optional<std::int64_t> Simulator::next_event_time_ns() {
  if (!prepare_next()) return std::nullopt;
  return due_front().at_ns;
}

void Simulator::flush_bucket(int level, std::uint32_t bucket) {
  // Detach the bucket, then refile each record relative to the (already
  // advanced) cursor: a level-0 bucket harvests straight into the due
  // array (its one tick equals the cursor), a higher level cascades
  // strictly downward (its deltas now fit a lower level or the due array).
  std::uint32_t& head =
      bucket_head_[static_cast<std::size_t>(level) * kSlotsPerLevel + bucket];
  std::uint32_t walk = std::exchange(head, kNil);
  bitmap_[level] &= ~(std::uint64_t{1} << bucket);
  if (level == 0 && due_empty()) {
    // Bulk harvest: append, then sort once, instead of one ordered
    // insert per record.
    while (walk != kNil) {
      Record& rec = record(walk);
      rec.where = Where::kDue;
      due_.push_back(DueEntry{rec.at_ns, rec.seq, walk});
      const std::uint32_t next = std::exchange(rec.next, kNil);
      rec.prev = kNil;
      walk = next;
    }
    // Direct schedules detach LIFO (descending), but a bucket filled by a
    // cascade was built from an already-LIFO walk, so it detaches ascending
    // — probe both orientations before paying for a real sort. A lone
    // record (the common harvest of a periodic timer) is sorted already.
    if (due_.size() > 1 &&
        !std::is_sorted(due_.begin(), due_.end(), Earlier{})) {
      std::reverse(due_.begin(), due_.end());
      if (!std::is_sorted(due_.begin(), due_.end(), Earlier{})) {
        std::sort(due_.begin(), due_.end(), Earlier{});
      }
    }
    if (due_.size() > stats_.max_due) stats_.max_due = due_.size();
    return;
  }
  while (walk != kNil) {
    Record& rec = record(walk);
    const std::uint32_t next = std::exchange(rec.next, kNil);
    rec.prev = kNil;
    place(walk, rec);
    walk = next;
  }
}

void Simulator::advance_wheel() {
  OBS_PROF_SCOPE("sim.harvest");
  // Fast path: the next level-0 tick lies inside the cursor's level-1
  // group. Every higher-level bound starts at the next group or later, so
  // that tick is the minimum, and since the cursor stays in its level-1
  // group no cascade is due — only the level-0 harvest below remains.
  if (bitmap_[0] != 0) {
    const auto pos = static_cast<unsigned>(cur_tick_ & kSlotMask);
    const std::int64_t tick =
        cur_tick_ + std::countr_zero(rotr64(bitmap_[0], pos));
    if ((tick >> kLevelBits) == (cur_tick_ >> kLevelBits)) {
      cur_tick_ = tick;
      flush_bucket(0, static_cast<std::uint32_t>(tick & kSlotMask));
      return;
    }
  }

  // The earliest pending bound of each level. Level 0 yields an exact
  // event tick (each occupied bucket holds exactly one tick value of the
  // 63-tick window); higher levels yield the lower bound of their earliest
  // pending slot.
  bool have = false;
  std::int64_t best_tick = 0;
  const auto consider = [&](std::int64_t t) {
    if (!have || t < best_tick) {
      best_tick = t;
      have = true;
    }
  };
  if (bitmap_[0] != 0) {
    const auto pos = static_cast<unsigned>(cur_tick_ & kSlotMask);
    consider(cur_tick_ + std::countr_zero(rotr64(bitmap_[0], pos)));
  }
  for (int level = 1; level < kWheelLevels; ++level) {
    if (bitmap_[level] == 0) continue;
    const std::int64_t cur_group = cur_tick_ >> (kLevelBits * level);
    // Pending groups live in [cur_group + 1, cur_group + 64]; scan the
    // occupancy bitmap rotated so that slot (cur_group + 1) is bit 0.
    const auto pos = static_cast<unsigned>((cur_group + 1) & kSlotMask);
    const int dist = std::countr_zero(rotr64(bitmap_[level], pos));
    consider((cur_group + 1 + dist) << (kLevelBits * level));
  }
  SW_ASSERT(have);  // live_ > 0 and due_ empty => somewhere to go
  SW_ASSERT(best_tick >= cur_tick_);

  // Advance the cursor to the minimum bound, then flush every level that
  // may contain events at that tick, coarse to fine, so equal-tick
  // events all meet in the due array where (time, seq) decides. No pending
  // slot has a lower bound below best_tick (it is the minimum), so the
  // cursor lands on at most one slot per level — the tie case the seed of
  // this function got wrong — and never skips over one.
  const std::int64_t old_tick = std::exchange(cur_tick_, best_tick);
  for (int level = kWheelLevels - 1; level >= 1; --level) {
    const std::int64_t new_group = cur_tick_ >> (kLevelBits * level);
    const std::int64_t old_group = old_tick >> (kLevelBits * level);
    const auto slot = static_cast<std::uint32_t>(new_group & kSlotMask);
    if (new_group > old_group &&
        ((bitmap_[level] >> slot) & 1u) != 0) {
      flush_bucket(level, slot);
    }
  }
  // Harvest the level-0 bucket the cursor landed on, if occupied.
  const auto l0 = static_cast<std::uint32_t>(cur_tick_ & kSlotMask);
  if (((bitmap_[0] >> l0) & 1u) != 0) flush_bucket(0, l0);
}

void Simulator::execute_top() {
  const DueEntry top = due_front();
  due_pop();
  Record& rec = record(top.slot);
  SW_ASSERT(rec.at_ns >= now_.ns);
  now_ = RealTime{rec.at_ns};
  ++executed_;
  --live_;
  if (trace_track_ != nullptr) [[unlikely]] {
    if ((executed_ & (kTraceSampleEvery - 1)) == 0) {
      trace_track_->counter(rec.at_ns, "events_executed", "executed",
                            executed_);
    }
  }
  rec.where = Where::kExecuting;
  executing_slot_ = top.slot;
  executing_gen_ = rec.gen;
  rearm_at_ns_ = kNoRearm;
  // The Task runs in its slab slot. Chunks never move, so the record stays
  // put while the callback schedules (and grows the slab); the kExecuting
  // pin keeps alloc_slot() and cancel() off it; and if the callback
  // throws, the guard frees the slot and restores a consistent simulator.
  struct ExecGuard {
    Simulator* sim;
    std::uint32_t slot;
    bool armed{true};
    ~ExecGuard() {
      if (armed) {
        sim->free_slot(slot);
        sim->executing_slot_ = kNil;
        sim->rearm_at_ns_ = kNoRearm;
      }
    }
  } guard{this, top.slot};
  rec.task();
  guard.armed = false;
  if (rearm_at_ns_ != kNoRearm) {
    // reschedule_after() on the running event: refile the same slot (same
    // generation — the caller's handle stays valid).
    rec.at_ns = rearm_at_ns_;
    rec.seq = take_seq(rec.seq);
    place(top.slot, rec);
    ++live_;
    rearm_at_ns_ = kNoRearm;
  } else {
    free_slot(top.slot);
  }
  executing_slot_ = kNil;
}

bool Simulator::step() {
  if (!prepare_next()) return false;
  execute_top();
  return true;
}

void Simulator::run(std::uint64_t max_events) {
  for (std::uint64_t i = 0; i < max_events; ++i) {
    if (!step()) return;
  }
}

void Simulator::run_until(RealTime t) {
  SW_EXPECTS(t.ns >= now_.ns);
  while (prepare_next() && due_front().at_ns <= t.ns) {
    execute_top();
  }
  now_ = t;
  closed_ns_ = t.ns;
}

}  // namespace stopwatch::sim
