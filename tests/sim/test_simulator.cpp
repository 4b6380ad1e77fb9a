#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
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

TEST(Simulator, BatchOccupiesOneQueueEntryButCountsAllCallbacks) {
  Simulator sim;
  std::vector<int> order;
  std::vector<Simulator::Callback> batch;
  for (int i = 0; i < 5; ++i) {
    batch.push_back([&order, i] { order.push_back(i); });
  }
  sim.schedule_batch(RealTime::millis(10), std::move(batch));
  EXPECT_EQ(sim.pending(), 1u);  // the whole shard is one heap entry
  sim.schedule_at(RealTime::millis(5), [&order] { order.push_back(-1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4}));
  EXPECT_EQ(sim.events_executed(), 6u);  // 5 batched + 1 plain
  EXPECT_EQ(sim.batched_callbacks(), 5u);
}

TEST(Simulator, BatchOrdersAgainstEqualTimestampEventsBySchedule) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(RealTime::millis(10), [&order] { order.push_back(0); });
  std::vector<Simulator::Callback> batch;
  batch.push_back([&order] { order.push_back(1); });
  batch.push_back([&order] { order.push_back(2); });
  sim.schedule_batch(RealTime::millis(10), std::move(batch));
  sim.schedule_at(RealTime::millis(10), [&order] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Simulator, CancelDropsWholeBatch) {
  Simulator sim;
  int fired = 0;
  std::vector<Simulator::Callback> batch;
  batch.push_back([&fired] { ++fired; });
  batch.push_back([&fired] { ++fired; });
  const auto id = sim.schedule_batch(RealTime::millis(1), std::move(batch));
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, EmptyOrNullBatchRejected) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_batch(RealTime::millis(1), {}), ContractViolation);
  std::vector<Simulator::Callback> with_null;
  with_null.push_back([] {});
  with_null.push_back(nullptr);
  EXPECT_THROW(sim.schedule_batch(RealTime::millis(1), std::move(with_null)),
               ContractViolation);
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

TEST(Simulator, EqualTimeFifoAcrossFarHorizonBoundary) {
  // First event sits beyond the timer wheel's ~275 ms horizon (far heap);
  // the second is scheduled at the same instant much later, from the near
  // side. Schedule order must still decide.
  Simulator sim;
  std::vector<int> order;
  const RealTime t = RealTime::millis(400);
  sim.schedule_at(t, [&] { order.push_back(1); });  // far heap
  sim.schedule_at(RealTime::millis(399), [&] {
    sim.schedule_at(t, [&] { order.push_back(2); });  // near side
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), t);
}

TEST(Simulator, EqualTimeFifoAcrossWheelAndDueBoundary) {
  // First event waits in the wheel; run_until stops the clock just short of
  // it, then a same-timestamp event arrives (which files straight into the
  // due heap). FIFO among equal timestamps must hold across the boundary.
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
  // Whichever was scheduled first, and through every structure an event
  // can wait in (far heap, wheel, due array), the ordinary events at an
  // instant run before its exits; each class keeps schedule order.
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
  // One event per timescale from nanoseconds (due/level 0) to seconds (far
  // heap), interleaved at schedule time; execution must sort them.
  Simulator sim;
  std::vector<std::int64_t> fired;
  const std::int64_t delays[] = {
      3'000'000'000,  // far heap, seconds out
      500,            // due this tick
      40'000'000,     // wheel level 2
      1'000,          // level 0
      900'000'000,    // far heap
      65'000,         // level 1
      270'000'000,    // just past the horizon
      4'200'000,      // level 2
      77,             // due
  };
  for (const std::int64_t d : delays) {
    sim.schedule_after(Duration{d}, [&fired, &sim] {
      fired.push_back(sim.now().ns);
    });
  }
  sim.run();
  ASSERT_EQ(fired.size(), std::size(delays));
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_EQ(sim.now(), RealTime{3'000'000'000});
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

}  // namespace
}  // namespace stopwatch::sim
