// Shard-parallel deterministic event execution (conservative PDES).
//
// A ShardedSimulator owns K independent sim::Simulator cores — each with
// its own timer wheel and slab arena — and runs them on a ThreadPool in
// barrier-synchronized windows. The protocol is the classic conservative
// one, specialized to this codebase's topology:
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
//    timestamp <= its window end - 1ns, then the cores meet at a barrier
//    (ThreadPool::wait_idle). Cores whose bound grants no work skip the
//    window entirely; a "barrier" is only counted when two or more cores
//    actually run (a thread join happens).
//  * An event that must run on another shard (a cross-shard frame
//    delivery) is not scheduled directly — the sender enqueues it into
//    the (source-shard, destination-shard) lane via cross_schedule().
//    Lanes are single-writer per source shard, so enqueueing is lock-free
//    by construction.
//  * At the barrier the main thread drains every lane and schedules the
//    entries into their destination cores in one deterministic order:
//    (timestamp, source shard, per-source sequence number). The order is
//    a pure function of simulation content — worker completion order,
//    thread count, and lane drain order cannot affect it.
//
// Correctness requires the lookahead contract: every cross-shard entry's
// timestamp must lie at or beyond the window end its destination was
// granted (enforced per entry by a contract check). Under that contract
// the sharded run executes the same events at the same timestamps as a
// sequential run; ties between cross-shard and shard-local events at the
// exact same nanosecond are the only place orderings could differ, and
// the jittered links that feed the lanes make exact ties measure-zero
// (the differential tests check this empirically).
//
// shards == 1 bypasses the machinery entirely (direct run_until on the
// single core, zero overhead), which is what makes `sim_shards=1` output
// the byte-identical reference for `sim_shards=N`.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/time.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace stopwatch {
class ThreadPool;
}  // namespace stopwatch

namespace stopwatch::sim {

struct ShardedConfig {
  /// Number of independent simulator cores (>= 1).
  int shards{1};
  /// Uniform lookahead: the floor of every pair without a declared one.
  /// Must be positive and no larger than the minimum cross-shard event
  /// latency. The topology layer derives this from the link models;
  /// tests set it directly.
  Duration window{Duration::micros(100)};
  /// Worker threads: 0 auto-sizes to min(shards, host cores) — a 1-CPU
  /// host gets the inline path, and an 8-shard run on a 4-core host
  /// gets 4 workers instead of 8 thrashing ones. 1 runs every window
  /// inline on the calling thread (same results — useful for
  /// debugging; results never depend on the thread count).
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
  /// timestamp <= t has executed on its destination core.
  void run_until(RealTime t);

  /// True while worker threads are inside a window — shared-state
  /// mutation from the main thread is illegal then.
  [[nodiscard]] bool running() const { return running_; }

  // --- Aggregate introspection (sum over cores) ---
  [[nodiscard]] std::uint64_t events_executed() const;
  [[nodiscard]] std::size_t pending() const;
  /// Total entries handed across shards via cross_schedule.
  [[nodiscard]] std::uint64_t cross_scheduled() const { return crossed_; }
  /// Barriers executed so far: windows in which two or more cores ran
  /// and met at a thread join. (Rounds that run a single lagging core
  /// inline are not barriers — no join happens.)
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
  /// One window: runs every core whose `mask` entry is set to its
  /// `run_to_ns` entry on the pool (inline when only one runs),
  /// collecting callback exceptions for re-raise on this thread.
  /// Counts a barrier when two or more cores ran. `window_end_ns_` must
  /// already hold the per-destination bounds for the contract check.
  void run_window(const std::vector<std::int64_t>& run_to_ns,
                  const std::vector<char>& mask);
  /// The declared floor for src -> dst entries (window.ns when the pair
  /// has none), or kUnreachableNs.
  [[nodiscard]] std::int64_t lookahead_ns(int src, int dst) const;
  [[nodiscard]] std::size_t lane_backlog() const;

  static constexpr std::int64_t kUnreachableNs =
      std::numeric_limits<std::int64_t>::max();

  ShardedConfig cfg_;
  std::vector<std::unique_ptr<Simulator>> cores_;
  /// Flattened [src * shards + dst]; each lane is written only by its
  /// source shard's worker during a window, drained only at barriers.
  std::vector<Lane> lanes_;
  /// Per-source-shard sequence counters (worker-confined like the lanes).
  std::vector<std::uint64_t> lane_seq_;
  std::vector<int> drain_order_;
  std::unique_ptr<ThreadPool> pool_;
  BarrierHook hook_;
  std::uint64_t crossed_{0};
  std::uint64_t barriers_{0};
  std::uint64_t adaptive_extensions_{0};
  std::uint64_t max_merge_batch_{0};
  obs::Histogram* merge_hist_{nullptr};
  bool running_{false};
  /// Per-destination bounds for the window in flight; cross_schedule
  /// validates each entry's timestamp against its destination's slot.
  /// Written single-threaded before the workers start.
  std::vector<std::int64_t> window_end_ns_;
  /// Flattened [src * shards + dst] per-pair floors; empty until the
  /// first set_lookahead, -1 entries fall back to cfg_.window.
  std::vector<std::int64_t> lookahead_;
  std::vector<LaneEntry> merge_scratch_;
  // Per-round scratch (sized shards, reused across rounds).
  std::vector<std::int64_t> t_min_scratch_;
  std::vector<std::int64_t> eit_scratch_;
  std::vector<std::int64_t> run_to_scratch_;
  std::vector<char> run_mask_;
};

}  // namespace stopwatch::sim
