// Simulation-time tracing: instant/complete/counter events stamped in
// *virtual* sim time, exported as Chrome trace-event JSON that
// chrome://tracing and https://ui.perfetto.dev load directly.
//
// Determinism across sim_shards is the design driver, exactly like the
// PR 7 lane merge:
//  * a track's (pid, tid) is a shard-count-INVARIANT identity — the
//    machine-table shard, the VM index, the egress gateway — never a
//    simulator core;
//  * each track is appended to by exactly one thread (the owner core of
//    the track's component), so per-track order is the deterministic
//    execution order and needs no synchronization;
//  * export stable-sorts every event by (ts, pid, tid): ties between
//    tracks are broken by the track identity and ties within a track keep
//    append order, so the serialized bytes are identical on 1 or K cores.
// Tracks whose content is inherently shard-dependent — barrier windows,
// per-core kernel counters — carry Category::kParallel and are excluded
// from the default export (`--trace-parallel` opts them in; a 1-shard run
// has no barriers to show, and byte-identity must hold by default).
//
// Installing a TraceRecorder (set_active_trace) is what turns recording
// on: core::Cloud asks the installed recorder for its tracks at
// construction, and a track records every event it is given. With no
// recorder installed no track exists, and every hook is one null-pointer
// branch — which is what keeps the disabled overhead inside the
// microbench's 2% budget.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace stopwatch::obs {

/// Whether a track survives the default (shard-count-invariant) export.
enum class Category : std::uint8_t {
  kSim,       ///< virtual-time component events, byte-identical across shards
  kParallel,  ///< execution-machinery events (barriers, per-core counters)
};

/// One recorded event. Names and argument keys are string literals (the
/// recorder stores the pointers, not copies) — the trace vocabulary is
/// static by design.
struct TraceEvent {
  std::int64_t ts_ns{0};
  std::int64_t dur_ns{-1};  ///< >= 0 only for complete ('X') events
  const char* name{nullptr};
  const char* arg_name{nullptr};  ///< nullptr = no args object
  std::uint64_t arg_value{0};
  char ph{'i'};  ///< 'i' instant, 'X' complete, 'C' counter
};

class TraceRecorder;

/// Single-writer append buffer for one timeline row in the trace UI.
class TraceTrack {
 public:
  void instant(std::int64_t ts_ns, const char* name,
               const char* arg_name = nullptr, std::uint64_t arg_value = 0) {
    events_.push_back({ts_ns, -1, name, arg_name, arg_value, 'i'});
  }
  void complete(std::int64_t ts_ns, std::int64_t dur_ns, const char* name,
                const char* arg_name = nullptr, std::uint64_t arg_value = 0) {
    events_.push_back({ts_ns, dur_ns, name, arg_name, arg_value, 'X'});
  }
  void counter(std::int64_t ts_ns, const char* name, const char* series,
               std::uint64_t value) {
    events_.push_back({ts_ns, -1, name, series, value, 'C'});
  }

 private:
  friend class TraceRecorder;
  TraceTrack(std::uint32_t pid, std::uint32_t tid, std::string process_name,
             std::string thread_name, Category category)
      : pid_(pid),
        tid_(tid),
        process_name_(std::move(process_name)),
        thread_name_(std::move(thread_name)),
        category_(category) {}

  std::uint32_t pid_;
  std::uint32_t tid_;
  std::string process_name_;
  std::string thread_name_;
  Category category_;
  std::vector<TraceEvent> events_;
};

class TraceRecorder {
 public:
  TraceRecorder() = default;
  /// Uninstalls itself if it is still the active recorder, so a recorder
  /// that goes out of scope never leaves a dangling process-wide pointer.
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// The track with identity (pid, tid), created on first request (the
  /// names and category are fixed by the creator). Creation is
  /// mutex-guarded — components may materialize lazily from their owner
  /// core's thread — but the returned pointer is stable and all event
  /// recording on it is lock-free.
  TraceTrack* track(std::uint32_t pid, std::uint32_t tid,
                    std::string process_name, std::string thread_name,
                    Category category = Category::kSim);

  /// Chrome trace-event JSON of every kSim track (plus kParallel tracks
  /// when `include_parallel`): metadata records naming each process and
  /// thread, then all events stable-sorted by (ts, pid, tid). Timestamps
  /// serialize as integer-exact microsecond strings (ns with three
  /// decimals), so equal inputs give equal bytes.
  [[nodiscard]] std::string export_json(bool include_parallel = false) const;

  /// Drops every track and recorded event.
  void clear();

  [[nodiscard]] std::size_t event_count() const;

 private:
  mutable std::mutex mu_;
  std::deque<TraceTrack> tracks_;  // deque: stable addresses across growth
  std::map<std::pair<std::uint32_t, std::uint32_t>, TraceTrack*> by_id_;
};

/// The process-wide recorder the current scenario run should record into
/// (nullptr when tracing is off — the common case). The runner installs
/// one for a traced run and exports and clears it after each scenario;
/// core::Cloud captures it at construction.
[[nodiscard]] TraceRecorder* active_trace();
void set_active_trace(TraceRecorder* recorder);

}  // namespace stopwatch::obs
