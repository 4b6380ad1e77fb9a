// Sharded-kernel correctness: the N-shard run must be indistinguishable
// from the 1-shard reference — the parallel mirror of the PR 5
// PQ-differential test. A synthetic entity workload (self-rescheduling
// chains + cross-entity messages through the lanes) is replayed under
// different shard counts, thread counts, and lane drain orders; per-entity
// event logs must match entry for entry, and at every barrier the sharded
// logs must be an exact prefix of the sequential reference. The epoch
// barrier's own contract is checked too: per-core event sequences do not
// depend on the thread count, a callback exception on a worker-run core
// re-raises from run_until, and destruction joins parked workers.
//
// Timestamp parity keeps the comparison tie-free by construction: chain
// ticks land on even nanoseconds, message deliveries on odd ones, and a
// message's arrival time encodes its source entity — so two messages can
// collide in time only when they share a source, where both orderings
// degenerate to the source's own (deterministic) send order.
#include "sim/sharded.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace stopwatch::sim {
namespace {

constexpr Duration kWindow = Duration::nanos(10'000);  // even: parity trick

struct DiffHarness {
  struct Entry {
    std::int64_t t{0};
    int kind{0};         // 0 = chain tick, 1 = message delivery
    std::uint64_t a{0};  // tick number / source entity
    std::uint64_t b{0};  // message id (per source)
    bool operator==(const Entry&) const = default;
  };

  DiffHarness(int shards, int entities, std::uint64_t seed,
              std::size_t threads = 0)
      : entities_(entities),
        sim_({shards, kWindow, threads}),
        logs_(static_cast<std::size_t>(entities)),
        core_logs_(static_cast<std::size_t>(shards)),
        ticks_(static_cast<std::size_t>(entities), 0),
        sent_(static_cast<std::size_t>(entities), 0) {
    const Rng root(seed);
    rngs_.reserve(static_cast<std::size_t>(entities));
    for (int e = 0; e < entities; ++e) {
      rngs_.push_back(root.fork(static_cast<std::uint64_t>(1000 + e)));
    }
    for (int e = 0; e < entities; ++e) {
      sim_.shard(shard_of(e)).schedule_at(RealTime::nanos(2 * (e + 1)),
                                          [this, e] { tick(e); });
    }
  }

  [[nodiscard]] int shard_of(int e) const { return e % sim_.shard_count(); }

  void tick(int e) {
    const auto eu = static_cast<std::size_t>(e);
    Simulator& core = sim_.shard(shard_of(e));
    logs_[eu].push_back({core.now().ns, 0, ticks_[eu]++, 0});
    core_logs_[static_cast<std::size_t>(shard_of(e))].push_back(
        {core.now().ns, 0, static_cast<std::uint64_t>(e), ticks_[eu]});
    Rng& rng = rngs_[eu];
    if (rng.chance(0.35)) {
      const int target = static_cast<int>(rng.uniform_int(0, entities_ - 1));
      const std::int64_t draw = rng.uniform_int(0, 499);
      // Beyond the lookahead (== window), odd, and with the arrival's
      // half-tick residue mod entities_ pinned to the sender — so two
      // sources can never collide on an arrival time, and same-source
      // collisions order by send sequence under both kernels.
      const std::int64_t half = (core.now().ns + kWindow.ns) / 2;
      std::int64_t residue = (e - half) % entities_;
      if (residue < 0) residue += entities_;
      const std::int64_t at =
          core.now().ns + kWindow.ns + 2 * (draw * entities_ + residue) + 1;
      const std::uint64_t msg = ++sent_[eu];
      auto deliver = [this, target, e, msg] {
        const std::int64_t now = sim_.shard(shard_of(target)).now().ns;
        logs_[static_cast<std::size_t>(target)].push_back(
            {now, 1, static_cast<std::uint64_t>(e), msg});
        core_logs_[static_cast<std::size_t>(shard_of(target))].push_back(
            {now, 1, static_cast<std::uint64_t>(target), msg});
      };
      const int src_shard = shard_of(e);
      const int dst_shard = shard_of(target);
      if (src_shard == dst_shard) {
        core.schedule_at(RealTime::nanos(at), std::move(deliver));
      } else {
        sim_.cross_schedule(src_shard, dst_shard, RealTime::nanos(at),
                            std::move(deliver));
      }
    }
    const Duration delay = Duration::nanos(2 * rng.uniform_int(1, 800));
    core.schedule_after(delay, [this, e] { tick(e); });
  }

  int entities_;
  ShardedSimulator sim_;
  std::vector<std::vector<Entry>> logs_;
  /// Per core, every event in execution order (written only by the
  /// thread running that core).
  std::vector<std::vector<Entry>> core_logs_;
  std::vector<Rng> rngs_;
  std::vector<std::uint64_t> ticks_;
  std::vector<std::uint64_t> sent_;
};

void expect_logs_equal(const DiffHarness& a, const DiffHarness& b) {
  ASSERT_EQ(a.logs_.size(), b.logs_.size());
  for (std::size_t e = 0; e < a.logs_.size(); ++e) {
    EXPECT_EQ(a.logs_[e], b.logs_[e]) << "entity " << e;
  }
}

TEST(ShardedSimulator, SingleShardDelegatesToPlainCore) {
  ShardedSimulator sharded({1, kWindow, 1});
  Simulator plain;
  std::vector<int> got_sharded;
  std::vector<int> got_plain;
  for (int i = 0; i < 5; ++i) {
    sharded.shard(0).schedule_at(
        RealTime::nanos(100 * (5 - i)),
        [&got_sharded, i] { got_sharded.push_back(i); });
    plain.schedule_at(RealTime::nanos(100 * (5 - i)),
                      [&got_plain, i] { got_plain.push_back(i); });
  }
  sharded.run_until(RealTime::nanos(600));
  plain.run_until(RealTime::nanos(600));
  EXPECT_EQ(got_sharded, got_plain);
  EXPECT_EQ(sharded.now(), plain.now());
  EXPECT_EQ(sharded.events_executed(), plain.events_executed());
  EXPECT_EQ(sharded.barriers(), 0u);  // bypass: no windows at all
}

TEST(ShardedSimulator, IdleFastPathJumpsTheClock) {
  ShardedSimulator sharded({4, kWindow, 1});
  sharded.run_until(RealTime::seconds(10));
  EXPECT_EQ(sharded.now(), RealTime::seconds(10));
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(sharded.shard(s).now(), RealTime::seconds(10));
  }
  EXPECT_EQ(sharded.barriers(), 0u);
}

TEST(ShardedSimulator, CrossScheduleOutsideWindowIsDirect) {
  ShardedSimulator sharded({2, kWindow, 1});
  std::vector<int> order;
  sharded.cross_schedule(0, 1, RealTime::nanos(200),
                         [&] { order.push_back(2); });
  sharded.shard(1).schedule_at(RealTime::nanos(100),
                               [&] { order.push_back(1); });
  sharded.run_until(RealTime::nanos(300));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ShardedSimulator, LookaheadViolationThrows) {
  // Shard 1 has work of its own, so its window reaches t_min(shard 0) +
  // lookahead, and shard 0's entry lands one nanosecond behind that
  // bound: shard 1 may already have run past it, so the contract must
  // reject the entry rather than silently reorder. (Without local work
  // shard 1 would skip the window, keep its clock, and the late entry
  // would deliver safely — the contract only rejects what could actually
  // misorder.)
  ShardedSimulator sharded({2, kWindow, 1});
  sharded.shard(1).schedule_at(RealTime::nanos(50), [] {});
  sharded.shard(1).schedule_at(RealTime::nanos(200), [] {});
  sharded.shard(0).schedule_at(RealTime::nanos(100), [&sharded] {
    sharded.cross_schedule(0, 1, RealTime::nanos(100 + kWindow.ns - 1), [] {});
  });
  EXPECT_THROW(sharded.run_until(RealTime::nanos(20'000)), ContractViolation);
}

TEST(ShardedSimulator, CrossShardDeliveryExecutesAtExactTime) {
  ShardedSimulator sharded({2, kWindow, 1});
  std::int64_t delivered_at = -1;
  sharded.shard(0).schedule_at(RealTime::nanos(100), [&sharded, &delivered_at] {
    sharded.cross_schedule(0, 1, RealTime::nanos(25'000),
                           [&sharded, &delivered_at] {
                             delivered_at = sharded.shard(1).now().ns;
                           });
  });
  sharded.run_until(RealTime::nanos(40'000));
  EXPECT_EQ(delivered_at, 25'000);
  EXPECT_EQ(sharded.cross_scheduled(), 1u);
}

TEST(ShardedSimulator, MergedEntryRunsBeforeAnExitAtItsNanosecond) {
  // The destination's exit at t was scheduled long before the lane merge
  // files the cross-shard entry for the same t: the entry is ordinary, so
  // it still runs first, as it would in a sequential run.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    ShardedSimulator sharded({2, kWindow, threads});
    std::vector<int> order;
    const RealTime t = RealTime::nanos(25'000);
    sharded.shard(1).schedule_at(t, [&order] { order.push_back(2); },
                                 Tie::kExit);
    sharded.shard(0).schedule_at(RealTime::nanos(100), [&sharded, &order, t] {
      sharded.cross_schedule(0, 1, t, [&order] { order.push_back(1); });
    });
    sharded.run_until(RealTime::nanos(40'000));
    EXPECT_EQ(order, (std::vector<int>{1, 2})) << threads;
    EXPECT_EQ(sharded.cross_scheduled(), 1u);
  }
}

TEST(ShardedSimulator, FinalWindowArrivalAtEndTimeStillExecutes) {
  // run_until(t) is inclusive: a cross-shard entry landing exactly at t
  // during the final window must run before run_until returns.
  ShardedSimulator sharded({2, kWindow, 1});
  bool delivered = false;
  sharded.shard(0).schedule_at(RealTime::nanos(100), [&sharded, &delivered] {
    sharded.cross_schedule(0, 1, RealTime::nanos(10'000),
                           [&delivered] { delivered = true; });
  });
  sharded.run_until(RealTime::nanos(10'000));
  EXPECT_TRUE(delivered);
  EXPECT_EQ(sharded.now(), RealTime::nanos(10'000));
}

TEST(ShardedSimulator, DifferentialRandomizedStress) {
  // The core claim: N-shard == 1-shard on the same seed, for several
  // seeds and shard counts, with real worker threads — and even on this
  // dense workload some windows reach past the uniform lookahead.
  const RealTime horizon = RealTime::nanos(400'000);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    DiffHarness reference(1, 12, seed);
    reference.sim_.run_until(horizon);
    for (int shards : {2, 3, 4}) {
      DiffHarness sharded(shards, 12, seed);
      sharded.sim_.run_until(horizon);
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " shards=" + std::to_string(shards));
      expect_logs_equal(reference, sharded);
      EXPECT_EQ(reference.sim_.events_executed(),
                sharded.sim_.events_executed());
      EXPECT_GT(sharded.sim_.adaptive_extensions(), 0u);
    }
  }
}

TEST(ShardedSimulator, AdaptiveWindowCrossesIdleGapsInOneBarrier) {
  // Ten bursts separated by 500 idle windows: each gap is crossed in one
  // window, so the run pays at most 3 barriers per burst rather than one
  // per uniform window.
  ShardedSimulator sharded({2, kWindow, 1});
  std::vector<std::int64_t> delivered;
  std::vector<std::int64_t> expected;
  for (int k = 0; k < 10; ++k) {
    const std::int64_t at = k * 500 * kWindow.ns + 2;
    expected.push_back(at + kWindow.ns + 1);
    sharded.shard(0).schedule_at(
        RealTime::nanos(at), [&sharded, &delivered, at] {
          sharded.cross_schedule(0, 1, RealTime::nanos(at + kWindow.ns + 1),
                                 [&sharded, &delivered] {
                                   delivered.push_back(
                                       sharded.shard(1).now().ns);
                                 });
        });
  }
  sharded.run_until(RealTime::nanos(10 * 500 * kWindow.ns));
  EXPECT_EQ(delivered, expected);
  EXPECT_GT(sharded.adaptive_extensions(), 0u);
  EXPECT_LE(sharded.barriers(), 3u * 10);
}

TEST(ShardedSimulator, BarrierCutsArePrefixesOfTheSequentialRun) {
  // "Identical event orderings at every barrier": after each window,
  // every entity's sharded log must be an exact prefix of the sequential
  // reference log, and the first un-run reference entry must lie at or
  // beyond its own core's clock. (The hook reports the frontier, the
  // farthest any core reached; a lagging core has committed only up to
  // its own clock.)
  const RealTime horizon = RealTime::nanos(300'000);
  const std::uint64_t seed = 42;
  DiffHarness reference(1, 10, seed);
  reference.sim_.run_until(horizon);

  DiffHarness sharded(4, 10, seed);
  std::uint64_t checked_barriers = 0;
  sharded.sim_.set_barrier_hook([&](RealTime frontier) {
    ++checked_barriers;
    for (std::size_t e = 0; e < sharded.logs_.size(); ++e) {
      const auto& cur = sharded.logs_[e];
      const auto& ref = reference.logs_[e];
      ASSERT_LE(cur.size(), ref.size()) << "entity " << e;
      EXPECT_TRUE(std::equal(cur.begin(), cur.end(), ref.begin()))
          << "entity " << e << " diverged at frontier t=" << frontier.ns;
      if (cur.size() < ref.size()) {
        const Simulator& core =
            sharded.sim_.shard(sharded.shard_of(static_cast<int>(e)));
        EXPECT_GE(ref[cur.size()].t, core.now().ns) << "entity " << e;
      }
    }
  });
  sharded.sim_.run_until(horizon);
  EXPECT_GT(checked_barriers, 10u);
  expect_logs_equal(reference, sharded);
}

TEST(ShardedSimulator, MergeOrderStableUnderPermutedDrainOrder) {
  // The merge must be a pure function of lane content: drain the lanes
  // in adversarial orders (a stand-in for arbitrary worker completion
  // order) and with different thread counts — identical logs required.
  const RealTime horizon = RealTime::nanos(300'000);
  const std::uint64_t seed = 7;
  const int shards = 4;
  DiffHarness baseline(shards, 12, seed, /*threads=*/1);
  baseline.sim_.run_until(horizon);

  std::vector<int> reversed(static_cast<std::size_t>(shards * shards));
  std::iota(reversed.begin(), reversed.end(), 0);
  std::reverse(reversed.begin(), reversed.end());
  DiffHarness permuted(shards, 12, seed, /*threads=*/1);
  permuted.sim_.set_lane_drain_order(reversed);
  permuted.sim_.run_until(horizon);
  expect_logs_equal(baseline, permuted);

  // An interleaved permutation plus real threads (worker completion
  // order is genuinely nondeterministic here).
  std::vector<int> interleaved;
  for (int i = 0; i < shards * shards; i += 2) interleaved.push_back(i);
  for (int i = 1; i < shards * shards; i += 2) interleaved.push_back(i);
  DiffHarness threaded(shards, 12, seed, /*threads=*/4);
  threaded.sim_.set_lane_drain_order(interleaved);
  threaded.sim_.run_until(horizon);
  expect_logs_equal(baseline, threaded);
}

TEST(ShardedSimulator, RepeatedRunsWithThreadsAreIdentical) {
  const RealTime horizon = RealTime::nanos(200'000);
  DiffHarness first(3, 9, 11, /*threads=*/3);
  first.sim_.run_until(horizon);
  for (int repeat = 0; repeat < 3; ++repeat) {
    DiffHarness again(3, 9, 11, /*threads=*/3);
    again.sim_.run_until(horizon);
    expect_logs_equal(first, again);
  }
}

TEST(ShardedSimulator, AggregateCountersSumOverCores) {
  DiffHarness h(4, 8, 3, /*threads=*/4);
  h.sim_.run_until(RealTime::nanos(100'000));
  std::uint64_t executed = 0;
  std::size_t pending = 0;
  for (int s = 0; s < 4; ++s) {
    // Every harness event writes exactly one entry to its core's log.
    EXPECT_EQ(h.sim_.shard(s).events_executed(),
              h.core_logs_[static_cast<std::size_t>(s)].size())
        << "core " << s;
    executed += h.sim_.shard(s).events_executed();
    pending += h.sim_.shard(s).pending();
  }
  EXPECT_EQ(h.sim_.events_executed(), executed);
  EXPECT_EQ(h.sim_.pending(), pending);  // lanes are empty between runs
  EXPECT_GT(h.sim_.cross_scheduled(), 0u);
}

TEST(ShardedSimulator, ThreadCountNeverChangesPerCoreSequences) {
  // Core s runs on thread s mod T: at every T from 1 (all inline) to 4
  // (one core per thread), each core must execute the same events in the
  // same order, and the counters must not move.
  const RealTime horizon = RealTime::nanos(300'000);
  DiffHarness inline_run(4, 12, 5, /*threads=*/1);
  inline_run.sim_.run_until(horizon);
  ASSERT_EQ(inline_run.sim_.thread_count(), 1u);
  for (const std::size_t threads : {2u, 3u, 4u}) {
    DiffHarness threaded(4, 12, 5, threads);
    threaded.sim_.run_until(horizon);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(threaded.sim_.thread_count(), threads);
    for (std::size_t s = 0; s < 4; ++s) {
      EXPECT_EQ(inline_run.core_logs_[s], threaded.core_logs_[s])
          << "core " << s;
      EXPECT_EQ(inline_run.sim_.shard(static_cast<int>(s)).events_executed(),
                threaded.sim_.shard(static_cast<int>(s)).events_executed());
    }
    EXPECT_EQ(inline_run.sim_.barriers(), threaded.sim_.barriers());
    EXPECT_EQ(inline_run.sim_.cross_scheduled(),
              threaded.sim_.cross_scheduled());
  }
}

TEST(ShardedSimulator, WorkerCoreExceptionReraisesAndNextRunWorks) {
  // Core 3 runs on a worker thread (3 mod 4 threads); its callback throws
  // mid-window while core 1 runs on another worker in the same window.
  ShardedSimulator sharded({4, kWindow, 4});
  ASSERT_EQ(sharded.thread_count(), 4u);
  // One counter per core: cores 1 and 3 run on different threads.
  int core1_ran = 0;
  int core3_ran = 0;
  sharded.shard(1).schedule_at(RealTime::nanos(400), [&] { ++core1_ran; });
  sharded.shard(3).schedule_at(RealTime::nanos(500), [] {
    throw std::runtime_error("callback failed on core 3");
  });
  sharded.shard(3).schedule_at(RealTime::nanos(30'000), [&] { ++core3_ran; });
  sharded.shard(1).schedule_at(RealTime::nanos(30'000), [&] { ++core1_ran; });
  try {
    sharded.run_until(RealTime::nanos(20'000));
    ADD_FAILURE() << "the worker core's exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "callback failed on core 3");
  }
  EXPECT_FALSE(sharded.running());
  EXPECT_EQ(core1_ran, 1);
  // The failed run leaves no stale error behind: the next run completes.
  sharded.run_until(RealTime::nanos(40'000));
  EXPECT_EQ(sharded.now(), RealTime::nanos(40'000));
  EXPECT_EQ(core1_ran, 2);
  EXPECT_EQ(core3_ran, 1);
}

TEST(ShardedSimulator, DestructionJoinsParkedWorkers) {
  // Before any run: the workers sit in their first wait. The sleep
  // outlasts the spin, so they are parked, not spinning.
  {
    ShardedSimulator sharded({4, kWindow, 4});
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // After a throw: the run's workers finished their window and parked.
  {
    ShardedSimulator sharded({4, kWindow, 4});
    sharded.shard(2).schedule_at(RealTime::nanos(100), [] {
      throw std::runtime_error("boom");
    });
    sharded.shard(1).schedule_at(RealTime::nanos(100), [] {});
    EXPECT_THROW(sharded.run_until(RealTime::nanos(5'000)),
                 std::runtime_error);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  SUCCEED();
}

TEST(ShardedSimulator, RejectsInvalidConfig) {
  EXPECT_THROW(ShardedSimulator({0, kWindow, 1}), ContractViolation);
  EXPECT_THROW(ShardedSimulator({2, Duration::nanos(0), 1}),
               ContractViolation);
  ShardedSimulator ok({2, kWindow, 1});
  EXPECT_THROW(static_cast<void>(ok.shard(2)), ContractViolation);
  EXPECT_THROW(ok.set_lane_drain_order({0, 1, 2}), ContractViolation);
}

}  // namespace
}  // namespace stopwatch::sim
