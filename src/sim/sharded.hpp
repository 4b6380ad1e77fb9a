// Shard-parallel deterministic event execution (conservative PDES).
//
// A ShardedSimulator owns K independent sim::Simulator cores — each with
// its own timer wheel and slab arena — and runs them on T threads in
// barrier-synchronized windows: the calling thread plus T - 1 persistent
// workers, with core s always on thread s mod T. The protocol is the
// classic conservative one, specialized to this codebase's topology:
//
//  * Event ownership is static: every event belongs to exactly one shard
//    (derived upstream from the machine index a VM lives on), and a
//    shard's events touch only shard-confined state. Within a window the
//    K cores therefore share nothing and run fully in parallel.
//  * Each core's window ends at the earliest time any cross-shard entry
//    could still reach it, computed from the per-core earliest-pending-
//    event watermarks and the declared per-pair lookahead floors
//    (set_lookahead; the uniform `window` for pairs without one) by the
//    classic earliest-input-time relaxation
//      eit[d] = min over s != d of (min(t_min[s], eit[s]) + L[s][d]),
//    iterated to its fixpoint so reaction chains (s receives, then
//    sends) are bounded transitively. A core executes its events with
//    timestamp <= its window end - 1ns, then the cores meet at a barrier.
//    Cores whose bound grants no work skip the window entirely; a
//    "barrier" is only counted when two or more cores actually run.
//  * The barrier is an epoch handshake, not a task queue: the calling
//    thread publishes the window's bounds, bumps the epoch of each worker
//    that owns a running core, runs its own cores, then waits for a
//    countdown of those workers to reach zero. Every wait spins first
//    (a window lasts tens to hundreds of microseconds) and parks on
//    std::atomic::wait only when the spin runs out. A window that runs a
//    single core runs it inline, and no window allocates.
//  * An event that must run on another shard (a cross-shard frame
//    delivery) is not scheduled directly — the sender enqueues it into
//    the (source-shard, destination-shard) lane via cross_schedule().
//    Lanes are single-writer per source shard, so enqueueing is lock-free
//    by construction.
//  * At the barrier the calling thread drains every lane and schedules
//    the entries into their destination cores in one deterministic order:
//    (timestamp, source shard, per-source sequence number). The order is
//    a pure function of simulation content — worker completion order,
//    thread count, and lane drain order cannot affect it.
//
// Correctness requires the lookahead contract: every cross-shard entry's
// timestamp must lie at or beyond the window end its destination was
// granted (enforced per entry by a contract check). Under that contract
// the sharded run executes the same events at the same timestamps as a
// sequential run. At one nanosecond, the kernel's tie rule runs every
// ordinary event before any guest vCPU exit (sim::Tie::kExit), so a
// merged frame delivery meets an exit at its instant exactly as in a
// sequential run, although the merge schedules it later. Only two
// ordinary events of different origins at the same nanosecond could
// still order differently from a sequential run; the jittered links that
// feed the lanes make those ties measure-zero (the differential tests
// check this empirically).
//
// shards == 1 bypasses the machinery entirely (direct run_until on the
// single core, zero overhead), which is what makes `sim_shards=1` output
// the byte-identical reference for `sim_shards=N`.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "common/time.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace stopwatch::sim {

struct ShardedConfig {
  /// Number of independent simulator cores (>= 1).
  int shards{1};
  /// Uniform lookahead: the floor of every pair without a declared one.
  /// Must be positive and no larger than the minimum cross-shard event
  /// latency. The topology layer derives this from the link models;
  /// tests set it directly.
  Duration window{Duration::micros(100)};
  /// Threads that run windows, the calling thread included (so T - 1
  /// persistent workers are spawned). 0 auto-sizes to min(shards, host
  /// cores): a 1-CPU host gets the inline path, and an 8-shard run on a
  /// 4-core host gets 4 threads instead of 8 thrashing ones. Values
  /// above `shards` are clamped to it. 1 runs every window inline on the
  /// calling thread (same results — useful for debugging; results never
  /// depend on the thread count).
  std::size_t threads{0};
};

/// K simulator cores + deterministic cross-shard lanes + barrier loop.
class ShardedSimulator {
 public:
  explicit ShardedSimulator(ShardedConfig cfg);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  [[nodiscard]] int shard_count() const { return cfg_.shards; }
  /// Threads that run windows, the calling thread included.
  [[nodiscard]] std::size_t thread_count() const { return workers_.size() + 1; }
  [[nodiscard]] Duration window() const { return cfg_.window; }
  /// Adjusts the uniform lookahead. Must not be called mid-run.
  void set_window(Duration w);

  /// Declares the minimum latency of cross-shard traffic from `src` to
  /// `dst`: no event executing on `src` at time ts may cross_schedule an
  /// entry for `dst` earlier than ts + floor. Pairs without a declared
  /// floor fall back to the uniform window. The per-entry contract
  /// validates every cross event against the bound actually granted, so
  /// an optimistic declaration fails loudly instead of corrupting the
  /// merge order.
  void set_lookahead(int src, int dst, Duration floor);
  /// Declares that `src` never sends cross-shard traffic to `dst` (the
  /// pair places no bound on `dst`'s window). An entry on the pair still
  /// delivers correctly when it lands beyond the granted bound — and
  /// throws when it does not.
  void set_lookahead_unreachable(int src, int dst);

  [[nodiscard]] Simulator& shard(int s);
  [[nodiscard]] const Simulator& shard(int s) const;

  /// Barrier-aligned current time: every core sits at this time between
  /// run_until calls.
  [[nodiscard]] RealTime now() const { return shard(0).now(); }

  /// Hands an event from shard `src` to shard `dst` for time `at`. Safe
  /// to call from shard `src`'s worker thread during a window (lanes are
  /// single-writer per source). The lookahead contract requires `at` to
  /// be at or beyond the destination's granted window end; violations
  /// throw.
  void cross_schedule(int src, int dst, RealTime at, Task cb);

  /// Runs all cores to exactly `t` through barrier-synchronized windows.
  /// On return every core's clock reads `t` and every lane entry with
  /// timestamp <= t has executed on its destination core. A callback
  /// that throws on any core ends the run after that window's barrier
  /// and re-raises here (the lowest core's exception first); the
  /// simulator stays usable.
  ///
  /// While an obs::Profiler is armed, each core's busy time in this call
  /// is added to the profiler's per-core totals (wall-clock values that
  /// never reach the deterministic report).
  void run_until(RealTime t);

  /// True while worker threads are inside a window — shared-state
  /// mutation from the main thread is illegal then.
  [[nodiscard]] bool running() const { return running_; }

  // --- Aggregate introspection (sum over cores) ---
  [[nodiscard]] std::uint64_t events_executed() const;
  [[nodiscard]] std::size_t pending() const;
  /// Total entries handed across shards via cross_schedule.
  [[nodiscard]] std::uint64_t cross_scheduled() const { return crossed_; }
  /// Barriers executed so far: windows in which two or more cores ran.
  /// (Rounds that run a single lagging core inline are not barriers.)
  /// Like every counter here, it depends on the shard count but never on
  /// the thread count.
  [[nodiscard]] std::uint64_t barriers() const { return barriers_; }
  /// Windows in which some core was granted a bound more than one
  /// uniform window past its position.
  [[nodiscard]] std::uint64_t adaptive_extensions() const {
    return adaptive_extensions_;
  }
  /// Largest single-barrier merge batch seen (peak cross-shard lane
  /// depth at a barrier).
  [[nodiscard]] std::uint64_t max_merge_batch() const {
    return max_merge_batch_;
  }
  /// Peak bytes held across all cross-shard lanes at a barrier (the
  /// memory-accounting gauge behind `mem.lane_bytes_highwater`).
  [[nodiscard]] std::uint64_t lane_bytes_highwater() const {
    return max_merge_batch_ * sizeof(LaneEntry);
  }

  /// Installs (or, with nullptr, removes) a histogram receiving the size
  /// of each non-empty barrier merge batch. Recorded on the main thread
  /// at barriers only, never inside a window.
  void set_merge_histogram(obs::Histogram* hist) { merge_hist_ = hist; }

  // --- Test hooks ---
  /// Invoked single-threaded after each barrier merge with the frontier:
  /// the farthest any core has committed to. The differential tests
  /// snapshot per-shard state here.
  using BarrierHook = std::function<void(RealTime frontier)>;
  void set_barrier_hook(BarrierHook hook) { hook_ = std::move(hook); }
  /// Permutes the order lanes are drained in at the merge (indices into
  /// the flattened src*K+dst lane array). The merge result must not
  /// depend on it — the merge-stability test sets adversarial orders.
  void set_lane_drain_order(std::vector<int> order);

 private:
  struct LaneEntry {
    std::int64_t at_ns;
    std::uint64_t seq;  // per-source-shard, monotonically increasing
    int src;
    int dst;
    Task task;
  };
  struct Lane {
    std::vector<LaneEntry> entries;
  };

  /// Drains and merge-schedules every lane; returns true if any entry
  /// landed at or before its destination core's current clock (only
  /// possible at a final window, where it forces a re-run).
  bool merge_lanes();
  /// One window: runs every core whose `run_mask_` entry is set to its
  /// `run_to_ns_` entry — inline when one core runs, else each on its
  /// own thread — then re-raises the first callback exception on the
  /// calling thread. `window_end_ns_` must already hold the per-
  /// destination bounds for the contract check.
  void run_window(std::size_t ran);
  /// Runs core `s` to its bound, capturing a callback exception and,
  /// while profiling, its wall time into the core's slot.
  void run_core(std::size_t s);
  /// Runs the window's cores owned by thread `thread`.
  void run_cores_of(std::size_t thread);
  /// A worker's life: wait for its epoch to move, run its cores, count
  /// down, repeat until the destructor sets `stopping_`.
  void worker_loop(std::size_t thread);
  /// The declared floor for src -> dst entries (window.ns when the pair
  /// has none), or kUnreachableNs.
  [[nodiscard]] std::int64_t lookahead_ns(int src, int dst) const;
  [[nodiscard]] std::size_t lane_backlog() const;

  static constexpr std::int64_t kUnreachableNs =
      std::numeric_limits<std::int64_t>::max();

  /// One core and the state only its thread writes during a window, on
  /// cache lines of its own. Adjacent cores' hot fields (the clock and
  /// counters at the head, the executing slot at the tail) would
  /// otherwise share a line and bounce it between threads on every
  /// event.
  struct alignas(64) Core {
    Simulator sim;
    /// Per-source lane sequence counter (see LaneEntry::seq).
    std::uint64_t lane_seq{0};
    std::exception_ptr error;
    std::uint64_t busy_ns{0};
  };

  ShardedConfig cfg_;
  std::vector<std::unique_ptr<Core>> cores_;
  /// Flattened [src * shards + dst]; each lane is written only by its
  /// source shard's thread during a window, drained only at barriers.
  std::vector<Lane> lanes_;
  std::vector<int> drain_order_;
  BarrierHook hook_;
  std::uint64_t crossed_{0};
  std::uint64_t barriers_{0};
  std::uint64_t adaptive_extensions_{0};
  std::uint64_t max_merge_batch_{0};
  obs::Histogram* merge_hist_{nullptr};
  bool running_{false};
  /// Per-destination bounds for the window in flight; cross_schedule
  /// validates each entry's timestamp against its destination's slot.
  /// Written by the calling thread before the workers start.
  std::vector<std::int64_t> window_end_ns_;
  /// Flattened [src * shards + dst] per-pair floors; empty until the
  /// first set_lookahead, -1 entries fall back to cfg_.window.
  std::vector<std::int64_t> lookahead_;
  std::vector<LaneEntry> merge_scratch_;
  // Per-window state, sized once to `shards`; written by the calling
  // thread between windows, read-only during one.
  std::vector<std::int64_t> t_min_;
  std::vector<std::int64_t> eit_;
  std::vector<std::int64_t> run_to_ns_;
  std::vector<char> run_mask_;
  /// True while an armed profiler wants per-core busy time.
  bool timing_{false};

  // --- Epoch barrier ---
  /// One worker's release signal, alone on its cache line.
  struct alignas(64) Epoch {
    std::atomic<std::uint32_t> value{0};
  };
  /// Indexed by thread; entry 0 (the calling thread) is unused.
  std::unique_ptr<Epoch[]> epochs_;
  /// Per-window scratch: which workers own a running core.
  std::vector<char> release_;
  /// Workers of the window in flight that have not finished it.
  alignas(64) std::atomic<std::uint32_t> outstanding_{0};
  std::uint32_t epoch_{0};
  /// Set by the destructor before its final epoch bump.
  bool stopping_{false};
  std::vector<std::thread> workers_;
};

}  // namespace stopwatch::sim
