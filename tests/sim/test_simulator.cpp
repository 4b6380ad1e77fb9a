#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "common/contracts.hpp"

namespace stopwatch::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(RealTime::millis(30), [&] { order.push_back(3); });
  sim.schedule_at(RealTime::millis(10), [&] { order.push_back(1); });
  sim.schedule_at(RealTime::millis(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), RealTime::millis(30));
}

TEST(Simulator, EqualTimestampsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(RealTime::millis(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  RealTime fired{};
  sim.schedule_at(RealTime::millis(10), [&] {
    sim.schedule_after(Duration::millis(5), [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, RealTime::millis(15));
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(RealTime::millis(10), [&] {
    sim.schedule_after(Duration::millis(-5), [&] { ran = true; });
  });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), RealTime::millis(10));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const auto id = sim.schedule_at(RealTime::millis(10), [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel is a no-op
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, RunUntilAdvancesClockExactly) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(RealTime::millis(10), [&] { ++count; });
  sim.schedule_at(RealTime::millis(20), [&] { ++count; });
  sim.schedule_at(RealTime::millis(30), [&] { ++count; });
  sim.run_until(RealTime::millis(20));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), RealTime::millis(20));
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_at(RealTime::millis(10), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(RealTime::millis(5), [] {}), ContractViolation);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.schedule_after(Duration::micros(1), chain);
  };
  sim.schedule_at(RealTime::nanos(0), chain);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.events_executed(), 100u);
}

TEST(Simulator, RunWithEventBudgetStopsEarly) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(RealTime::millis(i), [&] { ++count; });
  }
  sim.run(4);
  EXPECT_EQ(count, 4);
}

TEST(Simulator, PendingCountExcludesCancelled) {
  Simulator sim;
  const auto a = sim.schedule_at(RealTime::millis(1), [] {});
  sim.schedule_at(RealTime::millis(2), [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
}

// --- PR-5 event core: generation checks, wheel/heap boundaries, exact
// pending(), and in-place rescheduling. ---

TEST(Simulator, PendingExactAfterCancelThenStep) {
  // Regression for the seed implementation's `heap size - cancelled size`
  // arithmetic, which undercounted once a cancelled entry had been lazily
  // popped. pending() must track live events exactly through any
  // cancel/step interleaving.
  Simulator sim;
  const auto a = sim.schedule_at(RealTime::millis(1), [] {});
  sim.schedule_at(RealTime::millis(2), [] {});
  sim.schedule_at(RealTime::millis(3), [] {});
  EXPECT_EQ(sim.pending(), 3u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_TRUE(sim.step());  // skips the cancelled entry, runs the 2 ms event
  EXPECT_EQ(sim.now(), RealTime::millis(2));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(RealTime::millis(10));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, StaleCancelIsGenerationChecked) {
  // A recycled slot must not honour handles from its previous life.
  Simulator sim;
  const auto a = sim.schedule_at(RealTime::millis(1), [] {});
  EXPECT_TRUE(sim.cancel(a));
  bool ran = false;
  const auto b = sim.schedule_at(RealTime::millis(1), [&] { ran = true; });
  // The arena recycles the freed slot with a bumped generation...
  EXPECT_EQ(a.slot, b.slot);
  EXPECT_NE(a.gen, b.gen);
  // ...so the stale handle misses instead of killing the new event.
  EXPECT_FALSE(sim.cancel(a));
  EXPECT_TRUE(sim.is_scheduled(b));
  EXPECT_FALSE(sim.is_scheduled(a));
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(sim.cancel(b));  // already fired
}

TEST(Simulator, EqualTimeFifoAcrossWheelLevels) {
  // First event waits on wheel level 3 and cascades down; the second is
  // scheduled at the same instant much later, from the near side, onto
  // level 1. Schedule order must still decide.
  Simulator sim;
  std::vector<int> order;
  const RealTime t = RealTime::millis(400);
  sim.schedule_at(t, [&] { order.push_back(1); });  // level 3
  sim.schedule_at(RealTime::millis(399), [&] {
    sim.schedule_at(t, [&] { order.push_back(2); });  // level 1
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), t);
}

TEST(Simulator, EqualTimeFifoAcrossWheelAndDueBoundary) {
  // First event waits in the wheel; run_until stops the clock just short of
  // it, then a same-timestamp event arrives (which files straight into the
  // due array). FIFO among equal timestamps must hold across the boundary.
  Simulator sim;
  std::vector<int> order;
  const RealTime t{2'000'000};
  sim.schedule_at(t, [&] { order.push_back(1); });
  sim.run_until(RealTime{t.ns - 1});
  sim.schedule_at(t, [&] { order.push_back(2); });
  sim.schedule_at(t, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, ExitRunsAfterOrdinaryEventsAtItsNanosecond) {
  // Whichever was scheduled first, and whether the events wait in the due
  // array or on wheel level 1 or 3, the ordinary events at an instant run
  // before its exits; each class keeps schedule order.
  for (const std::int64_t at_ns : {std::int64_t{900}, std::int64_t{2'000'000},
                                   std::int64_t{400'000'000}}) {
    Simulator sim;
    std::vector<int> order;
    const RealTime t{at_ns};
    sim.schedule_at(t, [&] { order.push_back(10); }, Tie::kExit);
    sim.schedule_at(t, [&] { order.push_back(1); });
    sim.schedule_at(t, [&] { order.push_back(11); }, Tie::kExit);
    sim.schedule_at(t, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 10, 11})) << at_ns;
  }
}

TEST(Simulator, OrdinaryEventScheduledAtAnExitInstantRunsFirst) {
  // The ordinary event arrives mid-drain, after the exit already sits in
  // the sorted due array: it must still run first.
  Simulator sim;
  std::vector<int> order;
  const RealTime t{5'000};
  sim.schedule_at(t, [&] { order.push_back(2); }, Tie::kExit);
  sim.schedule_at(RealTime{4'999}, [&] {
    sim.schedule_at(t, [&] { order.push_back(1); });
  });
  sim.run_until(RealTime{4'999});
  sim.schedule_at(t, [&] { order.push_back(0); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
}

TEST(Simulator, ReArmedExitKeepsItsTiePosition) {
  // An exit that re-arms itself (in its callback or while pending) stays
  // an exit: an ordinary event at its new instant still runs first.
  Simulator sim;
  std::vector<int> order;
  EventId exit{};
  int fires = 0;
  exit = sim.schedule_at(RealTime{1'000}, [&] {
    order.push_back(100 + fires);
    if (++fires == 1) sim.reschedule_after(exit, Duration::nanos(1'000));
  }, Tie::kExit);
  sim.schedule_at(RealTime{2'000}, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{100, 1, 101}));

  order.clear();
  const EventId pending = sim.schedule_at(
      RealTime{3'000}, [&] { order.push_back(200); }, Tie::kExit);
  sim.schedule_at(RealTime{4'000}, [&] { order.push_back(2); });
  sim.reschedule_after(pending, Duration::nanos(2'000));  // now 4'000
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 200}));
}

TEST(Simulator, OnlyRunUntilClosesItsInstant) {
  Simulator sim;
  std::vector<bool> closed;
  const auto record = [&] { closed.push_back(sim.now_closed()); };
  EXPECT_FALSE(sim.now_closed());
  sim.schedule_at(RealTime{10}, record);
  sim.schedule_at(RealTime{10}, record);
  sim.schedule_at(RealTime{20}, record);
  ASSERT_TRUE(sim.step());
  EXPECT_FALSE(sim.now_closed());  // step() leaves an event at 10 pending
  sim.run_until(RealTime{10});
  EXPECT_TRUE(sim.now_closed());
  // Scheduled at the closed instant: runs after everything that was there.
  sim.schedule_at(RealTime{10}, record);
  sim.run_until(RealTime{30});
  EXPECT_EQ(closed, (std::vector<bool>{false, false, true, false}));
  EXPECT_TRUE(sim.now_closed());
  sim.schedule_at(RealTime{40}, record);
  sim.run();
  EXPECT_FALSE(sim.now_closed());  // run() closes nothing
}

TEST(Simulator, ManyTimescalesRunInOrder) {
  // One event per timescale from nanoseconds (due) to a century (wheel
  // level 8), interleaved at schedule time; execution must sort them.
  Simulator sim;
  std::vector<std::int64_t> fired;
  const std::int64_t delays[] = {
      3'000'000'000,              // level 3, seconds out
      500,                        // due this tick
      40'000'000,                 // level 2
      3'600'000'000'000,          // level 5, an hour out
      1'500,                      // level 0
      900'000'000,                // level 3
      100'000,                    // level 1
      3'155'760'000'000'000'000,  // level 8, a century out
      270'000'000,                // level 3
      31'557'600'000'000'000,     // level 7, a year out
      4'200'000,                  // level 2
      77,                         // due
  };
  for (const std::int64_t d : delays) {
    sim.schedule_after(Duration{d}, [&fired, &sim] {
      fired.push_back(sim.now().ns);
    });
  }
  sim.run();
  ASSERT_EQ(fired.size(), std::size(delays));
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_EQ(sim.now(), RealTime{3'155'760'000'000'000'000});
}

TEST(Simulator, RescheduleAfterFromInsideCallbackKeepsIdAndSlot) {
  Simulator sim;
  int fired = 0;
  std::optional<EventId> id;
  id = sim.schedule_after(Duration::micros(10), [&] {
    if (++fired < 3) {
      const EventId again = sim.reschedule_after(*id, Duration::micros(10));
      EXPECT_EQ(again, *id);  // the handle survives the re-arm
    }
  });
  const std::size_t slots_before = sim.arena_slots();
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), RealTime{30'000});
  EXPECT_EQ(sim.arena_slots(), slots_before);  // same slot all along
}

TEST(Simulator, RescheduleAfterRetimesPendingEvent) {
  Simulator sim;
  RealTime fired{};
  const auto id =
      sim.schedule_at(RealTime::millis(5), [&] { fired = sim.now(); });
  sim.schedule_at(RealTime::millis(1), [&] {
    sim.reschedule_after(id, Duration::millis(9));  // 1 ms + 9 ms = 10 ms
  });
  sim.run();
  EXPECT_EQ(fired, RealTime::millis(10));
}

TEST(Simulator, CancelDuringOwnCallbackRevokesRearm) {
  Simulator sim;
  int fired = 0;
  std::optional<EventId> id;
  id = sim.schedule_after(Duration::micros(1), [&] {
    ++fired;
    sim.reschedule_after(*id, Duration::micros(1));
    EXPECT_TRUE(sim.cancel(*id));   // revokes the re-arm...
    EXPECT_FALSE(sim.cancel(*id));  // ...which can only be done once
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, TaskHoldsMoveOnlyAndOversizedCallables) {
  Simulator sim;
  // Move-only capture (unique_ptr) stays inline.
  auto box = std::make_unique<int>(7);
  int got = 0;
  sim.schedule_after(Duration::micros(1),
                     [&got, b = std::move(box)] { got = *b; });
  // A capture larger than Task's 48-byte inline buffer falls back to the
  // heap but must behave identically.
  std::array<std::int64_t, 16> big{};
  big.fill(41);
  sim.schedule_after(Duration::micros(2), [&got, big] {
    got += static_cast<int>(big[15]);
  });
  Task small = [] {};
  Task large = [big] { (void)big[0]; };
  EXPECT_TRUE(small.is_inline());
  EXPECT_FALSE(large.is_inline());
  sim.run();
  EXPECT_EQ(got, 48);
}

TEST(Simulator, CancelAndRetimeInsideTheDueArray) {
  // run_until(t - 1) finds its front by harvesting t's wheel bucket, so
  // the seven events at t sit in the due array when one is cancelled, two
  // are retimed and two more join them below.
  Simulator sim;
  std::vector<int> order;
  const RealTime t{2'000'000};
  const auto at_t = [&](int label, Tie tie) {
    Task record = [&order, label] { order.push_back(label); };
    return sim.schedule_at(t, std::move(record), tie);
  };
  std::vector<EventId> ids;
  for (int label = 1; label <= 5; ++label) {
    ids.push_back(at_t(label, Tie::kOrdinary));
  }
  at_t(10, Tie::kExit);
  at_t(11, Tie::kExit);
  sim.run_until(RealTime{t.ns - 1});
  EXPECT_EQ(sim.kernel_stats().max_due, 7u);  // all seven harvested
  EXPECT_EQ(sim.next_event_time_ns(), t.ns);

  // 3 leaves from the middle of the array, gone rather than marked.
  EXPECT_TRUE(sim.cancel(ids[2]));
  EXPECT_FALSE(sim.cancel(ids[2]));
  // 2 moves to t + 100, later in the same tick; 4 stays at t, behind 5.
  sim.reschedule_after(ids[1], Duration{101});
  sim.reschedule_after(ids[3], Duration{1});
  // 6 lands ahead of the exits already queued, 12 behind them.
  at_t(6, Tie::kOrdinary);
  at_t(12, Tie::kExit);
  EXPECT_EQ(sim.pending(), 8u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 5, 4, 6, 10, 11, 12, 2}));
  EXPECT_EQ(sim.now(), RealTime{t.ns + 100});
  EXPECT_EQ(sim.pending(), 0u);
}

// Drives a Simulator with a seeded random mix of schedules, cancels and
// retimes, from the top level and from inside callbacks, and mirrors every
// operation in a reference queue keyed by (time, tie class, schedule
// order). Schedule order counts schedules, retimes and re-arms in the
// order the kernel draws their sequence numbers (a re-arm's when its
// callback returns). Each firing records the reference's front next to
// the event that actually ran.
class RandomOps {
 public:
  explicit RandomOps(std::uint64_t seed) : rng_(seed) {}

  Simulator sim;
  std::vector<int> fired;
  std::vector<int> expected;
  int budget = 3000;

  std::uint64_t below(std::uint64_t n) { return rng_() % n; }

  [[nodiscard]] std::size_t reference_size() const { return queue_.size(); }

  /// Upper edges of the delay bands target() draws from: the due array,
  /// then wheel levels 0-8 (level l holds delays of 2^(6l+10) ns and up).
  static constexpr std::int64_t kEdges[] = {
      0, 1024, 1 << 16, 1 << 22, 1 << 28, 1 << 30, std::int64_t{1} << 36,
      std::int64_t{1} << 46, std::int64_t{1} << 58, std::int64_t{1} << 61};
  /// The bands up to 2^30 ns, which the driver's run_until() targets keep
  /// to: the clock creeps, and the farther events wait on the upper levels
  /// until the queue holds nothing nearer.
  static constexpr std::size_t kNearBands = 6;
  /// Every time stays at or below this, so no draw can overflow.
  static constexpr std::int64_t kLatest = std::int64_t{1} << 62;

  /// A time at now() or out in one of the first `bands` delay bands; half
  /// of the later ones snap to a 4096 ns grid, so that events from
  /// different schedule times meet on one nanosecond.
  std::int64_t target(std::size_t bands = std::size(kEdges)) {
    const std::uint64_t c = below(bands);
    std::int64_t at = sim.now().ns;
    if (c == 0) return at;
    const auto width = static_cast<std::uint64_t>(kEdges[c] - kEdges[c - 1]);
    at += kEdges[c - 1] + static_cast<std::int64_t>(below(width));
    if (below(2) == 0) at = (at + 4095) / 4096 * 4096;
    return std::min(at, kLatest);
  }

  void random_op() {
    --budget;
    // A recent label (-1 before the first schedule): pending, fired or
    // recycled.
    const auto n = static_cast<std::uint64_t>(events_.size());
    const std::uint64_t back =
        n == 0 ? 0 : below(std::min<std::uint64_t>(n, 64));
    const int label = static_cast<int>(n) - 1 - static_cast<int>(back);
    switch (below(6)) {
      case 3:
        if (label >= 0) {
          cancel(label);
          return;
        }
        break;
      case 4:
        if (label >= 0 && label != running_ && is_pending(label)) {
          const std::int64_t at = target();
          const Duration delay{at - sim.now().ns};
          queue_.erase(events_[label].key);
          sim.reschedule_after(events_[label].id, delay);
          enqueue(label, at);
          return;
        }
        break;
      case 5:
        if (running_ >= 0) {
          rearm_at_ = target();
          const Duration delay{*rearm_at_ - sim.now().ns};
          sim.reschedule_after(events_[running_].id, delay);
          return;
        }
        break;
      default:
        break;
    }
    schedule();
  }

 private:
  using Key = std::tuple<std::int64_t, int, std::uint64_t>;
  struct Event {
    EventId id;
    Tie tie;
    Key key;
  };

  void schedule() {
    const Tie tie = below(4) == 0 ? Tie::kExit : Tie::kOrdinary;
    const std::int64_t at = target();
    const int label = static_cast<int>(events_.size());
    Task cb = [this, label] { fire(label); };
    EventId id;
    if (below(2) == 0) {
      id = sim.schedule_at(RealTime{at}, std::move(cb), tie);
    } else {
      // A zero delay goes in as a negative one, which clamps to now().
      const std::int64_t ns = at - sim.now().ns;
      const Duration delay{ns == 0 ? -7 : ns};
      id = sim.schedule_after(delay, std::move(cb), tie);
    }
    events_.push_back(Event{id, tie, Key{}});
    enqueue(label, at);
  }

  void cancel(int label) {
    bool live = false;
    if (label == running_) {
      live = rearm_at_.has_value();
      rearm_at_.reset();
    } else if (is_pending(label)) {
      live = true;
      queue_.erase(events_[label].key);
    }
    EXPECT_EQ(sim.cancel(events_[label].id), live) << label;
  }

  void enqueue(int label, std::int64_t at) {
    Event& e = events_[label];
    e.key = Key{at, e.tie == Tie::kExit ? 1 : 0, order_++};
    queue_.emplace(e.key, label);
  }

  [[nodiscard]] bool is_pending(int label) const {
    return queue_.count(events_[label].key) != 0;
  }

  void fire(int label) {
    fired.push_back(label);
    expected.push_back(queue_.empty() ? -1 : queue_.begin()->second);
    EXPECT_EQ(std::get<0>(events_[label].key), sim.now().ns);
    queue_.erase(events_[label].key);
    running_ = label;
    rearm_at_.reset();
    for (std::uint64_t k = below(3); k > 0 && budget > 0; --k) random_op();
    EXPECT_EQ(sim.pending(), queue_.size());
    if (rearm_at_) enqueue(label, *rearm_at_);
    running_ = -1;
  }

  std::mt19937_64 rng_;
  std::map<Key, int> queue_;
  std::vector<Event> events_;  // by label
  std::uint64_t order_ = 0;
  int running_ = -1;
  std::optional<std::int64_t> rearm_at_;
};

TEST(Simulator, RandomOpsMatchReferenceOrder) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RandomOps ops(seed);
    while (ops.budget > 0) {
      for (std::uint64_t k = ops.below(4); k > 0 && ops.budget > 0; --k) {
        ops.random_op();
      }
      EXPECT_EQ(ops.sim.pending(), ops.reference_size());
      if (ops.below(3) == 0) {
        for (std::uint64_t k = ops.below(8); k > 0; --k) ops.sim.step();
      } else {
        ops.sim.run_until(RealTime{ops.target(RandomOps::kNearBands)});
      }
    }
    ops.sim.run();
    EXPECT_EQ(ops.reference_size(), 0u);
    EXPECT_EQ(ops.sim.pending(), 0u);
    EXPECT_GT(ops.fired.size(), 1000u);
    ASSERT_EQ(ops.fired.size(), ops.expected.size());
    for (std::size_t i = 0; i < ops.fired.size(); ++i) {
      ASSERT_EQ(ops.fired[i], ops.expected[i])
          << "seed " << seed << ", event " << i;
    }
  }
}

}  // namespace
}  // namespace stopwatch::sim
