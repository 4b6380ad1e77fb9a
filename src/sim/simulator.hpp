// Deterministic discrete-event simulation kernel.
//
// This is the substrate on which the whole cloud runs: machines, links,
// VMMs, and guest vCPUs are all driven by events scheduled here. Events at
// equal timestamps run in a fixed order: every ordinary event first, then
// every guest vCPU exit (Tie::kExit), each class in schedule order
// (sequence-number tie-break). An input that lands on the nanosecond of an
// exit is therefore always visible to that exit, however the two were
// scheduled, and a simulation run is a pure function of its configuration
// and seed.
//
// Storage layout:
//  * every event lives in one slot of a slab arena of Record entries,
//    recycled through a free list; handles are generation-checked
//    EventId{slot, gen}, so a stale cancel is detected by a generation
//    mismatch instead of a hash lookup;
//  * timing is tracked by two structures: a `due` array of the events at
//    or before the wheel cursor, sorted by (time, sequence) (the only
//    place equal-time ordering is ever decided), and a hierarchical timer
//    wheel (kWheelLevels levels x 64 slots, level-0 tick = 2^kTickShift ns,
//    per-level occupancy bitmaps) whose levels together span every int64
//    nanosecond, so no event ever overflows it;
//  * callbacks are sim::Task — move-only with 48 bytes of inline storage —
//    so the common scheduling lambdas never touch the allocator.
//
// Both structures hold live events only: cancel unlinks a wheel resident
// in O(1) via intrusive prev/next indices and erases a due resident's
// entry, found by binary search on its (time, sequence) key. The
// equal-time order holds across both because events become executable
// only through the due array, which is sorted by (time, sequence), and an
// exit's sequence number carries the kExitBit above every ordinary one.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/time.hpp"
#include "sim/task.hpp"

namespace stopwatch::obs {
class TraceTrack;
}  // namespace stopwatch::obs

namespace stopwatch::sim {

/// Handle for a scheduled event; can be used to cancel or reschedule it.
/// `slot` names an arena slot, `gen` the slot's generation at allocation —
/// a handle outlives its event harmlessly (stale operations return false).
struct EventId {
  std::uint32_t slot{0xffffffffu};
  std::uint32_t gen{0};
  constexpr auto operator<=>(const EventId&) const = default;
};

/// Equal-time class of an event. At one nanosecond every kOrdinary event
/// runs before any kExit event; within a class, events run in schedule
/// order. Guest vCPU exits are kExit.
enum class Tie : std::uint8_t { kOrdinary, kExit };

/// Always-on kernel counters, exported into the observability block.
/// Plain integers: each Simulator core is single-threaded by construction.
struct KernelStats {
  std::uint64_t scheduled{0};
  std::uint64_t cancelled{0};
  std::uint64_t rescheduled{0};
  /// Occupancy high-water marks (memory accounting gauges): live events
  /// and due-array entries (consumed ones not yet shed included).
  std::uint64_t max_live{0};
  std::uint64_t max_due{0};
  /// Placements by destination structure. Counts every place() — initial
  /// schedules plus refiles from wheel cascades — so placed_wheel -
  /// scheduled measures refile traffic.
  std::uint64_t placed_due{0};
  std::uint64_t placed_wheel{0};
  /// Slab chunks allocated (arena growth; never shrinks).
  std::uint64_t arena_chunks{0};
};

/// Event-driven simulator with a single global (simulated) real-time clock.
class Simulator {
 public:
  using Callback = Task;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated real time.
  [[nodiscard]] RealTime now() const { return now_; }

  /// Schedule `cb` to run at absolute time `at`. `at` must not be in the
  /// past.
  EventId schedule_at(RealTime at, Task cb, Tie tie = Tie::kOrdinary);

  /// Schedule `cb` to run `delay` after now. Negative delays are clamped to
  /// zero (fires this instant, after already-queued same-time events of
  /// its class).
  EventId schedule_after(Duration delay, Task cb, Tie tie = Tie::kOrdinary);

  /// Re-arms the event `id` to fire `delay` after now, reusing its arena
  /// slot and — when called from inside the event's own callback — its Task
  /// object, so periodic timers (vCPU slices, sync beacons, stall rechecks)
  /// pay no allocation, no construction, and no cancel on each tick. Works
  /// on a pending event too (it is retimed without firing). Negative delays
  /// clamp to zero. The event keeps its Tie class. Returns `id` unchanged
  /// (the handle stays valid).
  /// Precondition: `id` is pending or currently executing.
  EventId reschedule_after(EventId id, Duration delay);

  /// Cancel a pending event. Cancelling an already-fired, stale, or unknown
  /// event is a no-op and returns false. Cancelling the currently executing
  /// event revokes a reschedule_after() re-arm if one is in flight.
  bool cancel(EventId id);

  /// True if `id` names an event that is scheduled and not yet fired.
  [[nodiscard]] bool is_scheduled(EventId id) const {
    if (id.slot >= slab_size_) return false;
    const Record& rec = record(id.slot);
    return rec.gen == id.gen && rec.where != Where::kFree &&
           rec.where != Where::kExecuting;
  }
  /// True if `id` names the event whose callback is currently running.
  [[nodiscard]] bool is_executing(EventId id) const {
    return executing_slot_ == id.slot && executing_slot_ != kNil &&
           executing_gen_ == id.gen;
  }

  /// True when the last run_until() ended at now(): every event at now()
  /// pending then has run, guest exits included, and whatever runs at
  /// now() from here on runs after them. False inside the callbacks that
  /// run_until() runs at its instant and between step() or run() calls,
  /// where exits at now() may still be pending behind ordinary events.
  [[nodiscard]] bool now_closed() const { return closed_ns_ == now_.ns; }

  /// Run the single earliest pending event. Returns false if none pending.
  bool step();

  /// Run events until the queue is empty or `max_events` fired.
  void run(std::uint64_t max_events = UINT64_MAX);

  /// Run events with timestamp <= t, then advance the clock to exactly t.
  void run_until(RealTime t);

  /// Number of events executed so far.
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Number of live pending events: scheduled, not yet fired, not
  /// cancelled. Exact — derived from live slab slots, not from queue sizes
  /// (the seed implementation undercounted after a cancelled entry had been
  /// lazily popped).
  [[nodiscard]] std::size_t pending() const { return live_; }

  /// Timestamp of the earliest pending event, or nullopt when nothing is
  /// pending. Non-const: it may advance the wheel cursor (draining wheel
  /// buckets into the due array) to find the front, but it
  /// never fires anything and never moves now(). This is the per-core
  /// watermark the sharded kernel's adaptive barrier window reads.
  [[nodiscard]] std::optional<std::int64_t> next_event_time_ns();

  /// Size of the slab arena (live + free slots) — the churn tests assert
  /// this stays flat while events are recycled.
  [[nodiscard]] std::size_t arena_slots() const { return slab_size_; }

  /// Bytes held by the slab arena (chunks never shrink) — the memory-
  /// accounting gauge behind `mem.arena_bytes`.
  [[nodiscard]] std::size_t arena_bytes() const {
    return chunks_.size() * (std::size_t{1} << kChunkBits) * sizeof(Record);
  }

  /// Always-on scheduling/placement counters (see KernelStats).
  [[nodiscard]] const KernelStats& kernel_stats() const { return stats_; }

  /// Attaches (or, with nullptr, detaches) a trace track. Every
  /// kTraceSampleEvery executed events the kernel records its
  /// `events_executed` counter into it, so an attached track costs one
  /// predicted branch and a mask test per event between samples. Null by
  /// default: the detached cost is one [[unlikely]] null check per event.
  void set_trace_track(obs::TraceTrack* track) { trace_track_ = track; }

  /// Executed-event sampling interval for an attached trace track (power
  /// of two: the hot path tests `executed & (kTraceSampleEvery-1)`).
  static constexpr std::uint64_t kTraceSampleEvery = 4096;

 private:
  // --- Wheel geometry ---
  static constexpr int kTickShift = 10;  // level-0 tick = 1024 ns
  static constexpr int kLevelBits = 6;   // 64 slots per level
  /// Level l holds deltas below 2^(kLevelBits*(l+1)) ticks; nine levels
  /// reach 2^64 ns, past every non-negative int64 time.
  static constexpr int kWheelLevels = 9;
  static_assert(kTickShift + kLevelBits * kWheelLevels >= 63);
  static constexpr std::uint32_t kSlotsPerLevel = 1u << kLevelBits;
  static constexpr std::uint32_t kSlotMask = kSlotsPerLevel - 1;

  static constexpr std::uint32_t kNil = 0xffffffffu;
  /// Set in the sequence number of every Tie::kExit event, so the (time,
  /// sequence) key of every structure orders exits after ordinary events
  /// at equal times.
  static constexpr std::uint64_t kExitBit = std::uint64_t{1} << 63;

  enum class Where : std::uint8_t {
    kFree,       // on the free list
    kDue,        // in the due array (tick <= wheel cursor)
    kWheel,      // linked into a wheel bucket
    kExecuting,  // callback currently running (slot pinned, not live)
  };

  struct Record {
    Task task;
    std::int64_t at_ns{0};
    std::uint64_t seq{0};
    std::uint32_t gen{1};
    Where where{Where::kFree};
    std::uint8_t level{0};
    std::uint8_t bucket{0};  // slot index within the level
    std::uint32_t prev{kNil};
    std::uint32_t next{kNil};
  };

  /// Entry of the due array: a copy of the record's ordering key and its
  /// slot. Cancel and reschedule erase a record's entry along with it.
  struct DueEntry {
    std::int64_t at_ns;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// The (time, sequence) order, ascending: the due array's sort key.
  struct Earlier {
    bool operator()(const DueEntry& a, const DueEntry& b) const {
      if (a.at_ns != b.at_ns) return a.at_ns < b.at_ns;
      return a.seq < b.seq;
    }
  };

  EventId schedule_impl(std::int64_t at_ns, Task&& cb, Tie tie);
  /// The next sequence number, in the tie position of `seq_class` (a
  /// record's previous sequence, or kExitBit / 0).
  std::uint64_t take_seq(std::uint64_t seq_class) {
    return next_seq_++ | (seq_class & kExitBit);
  }
  /// Slab accessors: records live in fixed-size chunks, so a slot's address
  /// is stable for the simulator's lifetime — callbacks may schedule (and
  /// grow the slab) while a record is being executed, without relocations.
  [[nodiscard]] Record& record(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & kChunkMask];
  }
  [[nodiscard]] const Record& record(std::uint32_t slot) const {
    return chunks_[slot >> kChunkBits][slot & kChunkMask];
  }
  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t slot);
  /// Files `slot` (whose record is `rec`) into the due array or the wheel
  /// according to its record's time, relative to the current wheel cursor.
  void place(std::uint32_t slot, Record& rec);
  void wheel_link(std::uint32_t slot, Record& rec, int level,
                  std::uint32_t bucket);
  void wheel_unlink(std::uint32_t slot);
  /// Ensures the due array's front is the earliest live event, advancing
  /// the wheel cursor (harvesting level-0 buckets, cascading higher levels)
  /// as needed. Returns false if nothing is pending.
  /// Shared by step(), run_until() and next_event_time_ns().
  bool prepare_next();
  /// One cursor advance: moves at least one event toward the due array.
  void advance_wheel();
  /// Detaches a wheel bucket and refiles its records against the cursor.
  void flush_bucket(int level, std::uint32_t bucket);
  /// Kept out of line: its call count is the executed-event count a gprof
  /// run reports per layer.
  [[gnu::noinline]] void execute_top();

  // The due array is sorted by Earlier and consumed through due_head_: a
  // bulk-harvested level-0 bucket drains with O(1) pops, an in-order push
  // appends, an out-of-order push sheds the consumed prefix and inserts at
  // its upper bound, and cancel or retime erases its entry. It is cleared
  // whenever it drains, so an empty due array is an empty vector.
  [[nodiscard]] bool due_empty() const { return due_head_ == due_.size(); }
  [[nodiscard]] const DueEntry& due_front() const { return due_[due_head_]; }
  void due_pop();
  void due_push_entry(const DueEntry& e);
  /// Erases the due entry of `rec`, looked up by its current (time, seq).
  void due_erase(const Record& rec);

  RealTime now_{};
  std::int64_t closed_ns_{-1};  // where the last run_until() ended
  std::uint64_t next_seq_{1};
  std::uint64_t executed_{0};
  std::size_t live_{0};
  KernelStats stats_;
  obs::TraceTrack* trace_track_{nullptr};

  static constexpr int kChunkBits = 8;  // 256 records per slab chunk
  static constexpr std::uint32_t kChunkMask = (1u << kChunkBits) - 1;

  std::vector<std::unique_ptr<Record[]>> chunks_;
  std::size_t slab_size_{0};
  /// Head of the intrusive free list (chained through Record::next).
  std::uint32_t free_head_{kNil};

  using BucketHeads = std::array<std::uint32_t, kWheelLevels * kSlotsPerLevel>;
  static constexpr BucketHeads nil_buckets() {
    BucketHeads a{};
    a.fill(kNil);
    return a;
  }

  /// Wheel cursor: no live event has tick < cur_tick_ except those already
  /// in the due array. Advances monotonically, possibly ahead of now().
  std::int64_t cur_tick_{0};
  /// Bucket list heads, flattened [level * kSlotsPerLevel + slot].
  BucketHeads bucket_head_ = nil_buckets();
  std::uint64_t bitmap_[kWheelLevels]{};

  std::vector<DueEntry> due_;
  std::size_t due_head_{0};

  /// Slot of the event whose callback is running (kNil when none), with its
  /// generation; plain sentinels rather than optionals — these are touched
  /// on every event execution.
  std::uint32_t executing_slot_{kNil};
  std::uint32_t executing_gen_{0};
  static constexpr std::int64_t kNoRearm = INT64_MIN;
  std::int64_t rearm_at_ns_{kNoRearm};
};

}  // namespace stopwatch::sim
