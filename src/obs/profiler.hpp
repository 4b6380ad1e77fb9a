// Wall-clock self-profiling: cheap scoped timers over a *static* registry
// of phase names, so the simulator can attribute its own host-side cost
// (where does the wall time go — wheel harvest? barrier waits? Theorem-2
// placement?) without perturbing the simulation it measures.
//
// Design rules, mirroring the tracing layer (trace.hpp):
//  * The phase vocabulary is fixed at compile time. OBS_PROF_SCOPE("x")
//    resolves the name to a registry index with a consteval lookup — an
//    unknown phase name is a build error, and the `profile` block always
//    lists every phase in registry order, so the output *schema* is
//    byte-stable even though the wall values are measurements.
//  * Installing a Profiler (set_active_profiler) is what turns recording
//    on. With none installed, a scope costs one relaxed pointer load and
//    one predicted branch — the disabled cost that the
//    `profiling_disabled_overhead_ratio` microbench gates.
//  * Recording goes to per-thread slots (registered on first use,
//    merged under a mutex only at snapshot time), so simulator worker
//    threads never contend. Each slot keeps per-phase {calls, total_ns,
//    self_ns} plus a per-call-path self-time map that snapshot() renders
//    as flamegraph-style collapsed stacks.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace stopwatch::obs {

/// The static phase registry. Alphabetical; serialization order is this
/// order. Adding a phase is an additive schema change — append-site and
/// README table should move together.
inline constexpr std::array<const char*, 12> kProfPhases = {
    "bench.probe",          // microbench overhead-probe scope
    "cloud.run",            // Cloud::run_for / run_until body
    "leakage.estimate",     // binning + MI estimation over observation logs
    "placement.theorem2",   // Theorem-2 / greedy placement construction
    "policy.release",       // egress gate: copy matching + release decision
    "scenario.analysis",    // scenario-side post-run metric computation
    "scenario.drive",       // scenario-side load/drive scheduling
    "scenario.placement",   // scenario-side placement construction + checks
    "scenario.setup",       // scenario-side topology build + VM creation
    "sharded.barrier_wait", // wait for worker cores after the caller's own
    "sharded.merge",        // cross-shard lane drain + deterministic merge
    "sim.harvest",          // wheel cursor advance + level-0 bulk harvest
};

inline constexpr std::size_t kProfPhaseCount = kProfPhases.size();

/// Registry index of `name`; unknown names fail the build (the lookup is
/// consteval, so it can only be called with compile-time names).
consteval std::size_t prof_phase_index(std::string_view name) {
  for (std::size_t i = 0; i < kProfPhases.size(); ++i) {
    if (name == std::string_view{kProfPhases[i]}) return i;
  }
  throw "phase name is not in obs::kProfPhases";  // compile-time failure
}

/// Merged per-phase totals for one phase.
struct ProfPhaseSnapshot {
  std::uint64_t calls{0};
  std::uint64_t total_ns{0};  ///< inclusive (children counted)
  std::uint64_t self_ns{0};   ///< exclusive (children subtracted)
};

/// One collapsed call path ("root;child;leaf") with its exclusive time.
struct ProfPathSnapshot {
  std::string stack;
  std::uint64_t self_ns{0};
  std::uint64_t calls{0};
};

/// Point-in-time merge of every thread slot. Phases are indexed exactly
/// like kProfPhases (all present, zeros included); paths are sorted by
/// stack string.
struct ProfilerSnapshot {
  std::array<ProfPhaseSnapshot, kProfPhaseCount> phases{};
  std::vector<ProfPathSnapshot> paths;
  /// Wall time each sharded-simulator core spent running events, indexed
  /// by core (empty when no sharded window ran). Measured on whichever
  /// thread ran the core, so it overlaps the phases above.
  std::vector<std::uint64_t> core_busy_ns;

  /// Sum of per-phase exclusive time — the wall time the profiler can
  /// attribute to named phases.
  [[nodiscard]] std::uint64_t attributed_ns() const;
};

class Profiler {
 public:
  Profiler();
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Merges every thread slot. Call only while writers are quiescent
  /// (scenario boundaries) — slot contents are plain integers.
  [[nodiscard]] ProfilerSnapshot snapshot() const;

  /// Drops all recorded data (slots stay registered).
  /// Same quiescence contract as snapshot().
  void clear();

  /// Adds `ns` to sharded-simulator core `core`'s busy total. Called by
  /// the thread driving the simulator, between windows.
  void add_core_busy_ns(std::size_t core, std::uint64_t ns);

  struct ThreadSlot;

 private:
  friend ThreadSlot* prof_enter(Profiler* profiler, std::size_t phase);
  ThreadSlot* slot_for_current_thread();

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSlot>> slots_;
  std::vector<std::uint64_t> core_busy_ns_;  // guarded by mu_
};

/// The process-wide profiler the current run records into (nullptr when
/// profiling is off — the common case). Mirrors active_trace().
[[nodiscard]] Profiler* active_profiler();
void set_active_profiler(Profiler* profiler);

namespace detail {
extern std::atomic<Profiler*> g_profiler;
}  // namespace detail

/// Out-of-line recording path: registers/fetches the calling thread's slot and
/// pushes a frame. Returns nullptr when the frame stack is saturated in a
/// way that cannot be tracked (never happens at kProfMaxDepth >= real
/// nesting; overflow is still counted and balanced).
Profiler::ThreadSlot* prof_enter(Profiler* profiler, std::size_t phase);
void prof_exit(Profiler::ThreadSlot* slot);

/// RAII scope used via OBS_PROF_SCOPE. Cost with no profiler installed:
/// one relaxed load, one predicted branch.
class ProfScope {
 public:
  explicit ProfScope(std::size_t phase)
      : ProfScope(phase, detail::g_profiler) {}
  /// Reads the profiler from `source` instead of the process-wide pointer:
  /// the same null check, on a pointer no other thread can see (the
  /// microbench overhead probe's way to time it while scenarios run).
  ProfScope(std::size_t phase, const std::atomic<Profiler*>& source) {
    Profiler* p = source.load(std::memory_order_relaxed);
    if (p == nullptr) [[likely]] {
      slot_ = nullptr;
      return;
    }
    slot_ = prof_enter(p, phase);
  }
  ~ProfScope() {
    if (slot_ != nullptr) prof_exit(slot_);
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  Profiler::ThreadSlot* slot_;
};

#define OBS_PROF_CONCAT_INNER(a, b) a##b
#define OBS_PROF_CONCAT(a, b) OBS_PROF_CONCAT_INNER(a, b)
/// Times the enclosing scope under the (compile-time-checked) phase name.
#define OBS_PROF_SCOPE(name)                             \
  ::stopwatch::obs::ProfScope OBS_PROF_CONCAT(           \
      obs_prof_scope_, __LINE__) {                       \
    ::stopwatch::obs::prof_phase_index(name)             \
  }

/// The `profile` block: fixed schema (every phase, registry order, then
/// one `core_busy_ns` entry per sharded-simulator core), wall values
/// measured. `wall_ns` is the scenario's elapsed wall time; the
/// unattributed remainder is reported as `other_ns` (clamped at 0).
/// RSS values are the boundary samples (0 when the platform offers none).
[[nodiscard]] std::string profile_to_json(const ProfilerSnapshot& snap,
                                          std::uint64_t wall_ns,
                                          std::uint64_t rss_bytes,
                                          std::uint64_t rss_peak_bytes,
                                          int indent = 0);

/// Flamegraph-style collapsed stacks ("a;b;c <self_ns>" per line, sorted).
[[nodiscard]] std::string collapsed_stacks(const ProfilerSnapshot& snap);

/// Current / peak resident set size of this process in bytes (Linux
/// /proc/self/status; 0 elsewhere). Sampled by the runner at scenario
/// boundaries into the profile block — never into deterministic output.
[[nodiscard]] std::uint64_t process_rss_bytes();
[[nodiscard]] std::uint64_t process_rss_peak_bytes();

}  // namespace stopwatch::obs
