// Arena recycling under churn — the lifetime-bug habitat of the slab event
// core. A schedule/cancel (or schedule/run) cycle must recycle the same
// handful of slots forever: pending() stays flat because it counts live
// slots exactly, and arena_slots() stays flat because cancel releases a
// slot immediately (wheel residents unlink in O(1) and due residents are
// erased from the due array, so no stale entry can resurrect a recycled
// slot). CI runs this suite under ASan+UBSan specifically to shake out
// use-after-recycle bugs.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

namespace stopwatch::sim {
namespace {

constexpr std::uint64_t kCycles = 1'000'000;

TEST(EventCoreChurn, ScheduleCancelMillionCycleStaysFlat) {
  Simulator sim;
  // Warm the arena with a few live events so recycling happens amid
  // neighbours, not in an empty simulator.
  for (int i = 0; i < 8; ++i) {
    sim.schedule_after(Duration::seconds(5), [] {});
  }
  const std::size_t base_pending = sim.pending();
  // The first cycle may grow the arena by the one slot the churn then
  // recycles; everything after must reuse it.
  {
    const EventId id = sim.schedule_after(Duration::millis(1), [] {});
    ASSERT_TRUE(sim.cancel(id));
  }
  const std::size_t base_slots = sim.arena_slots();
  std::uint64_t rng = 0x243f6a8885a308d3ULL;
  for (std::uint64_t i = 0; i < kCycles; ++i) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    // Mixed horizons: due (0) and wheel levels 0-3 all recycle.
    const auto delay = static_cast<std::int64_t>(rng % 400'000'000);
    const EventId id = sim.schedule_after(Duration{delay}, [] {});
    ASSERT_TRUE(sim.cancel(id));
    ASSERT_FALSE(sim.cancel(id));  // double cancel stays a no-op
    ASSERT_EQ(sim.pending(), base_pending);
  }
  // One slot serves the whole million-cycle churn.
  EXPECT_EQ(sim.arena_slots(), base_slots);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 8u);
}

TEST(EventCoreChurn, ScheduleRunChurnReusesSlots) {
  Simulator sim;
  std::uint64_t fired = 0;
  // 1000 rounds of 64 events: the arena high-water mark is one round.
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 64; ++i) {
      sim.schedule_after(Duration::nanos(50 + i * 977), [&fired] { ++fired; });
    }
    sim.run();
  }
  EXPECT_EQ(fired, 64'000u);
  EXPECT_LE(sim.arena_slots(), 64u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(EventCoreChurn, RescheduleChurnHoldsOneSlot) {
  Simulator sim;
  std::uint64_t ticks = 0;
  EventId id{};
  id = sim.schedule_after(Duration::nanos(100), [&] {
    if (++ticks < 200'000) sim.reschedule_after(id, Duration::nanos(100));
  });
  sim.run();
  EXPECT_EQ(ticks, 200'000u);
  EXPECT_EQ(sim.arena_slots(), 1u);
}

TEST(EventCoreChurn, CancelHeavyRoundsReuseSlots) {
  // Cancel nine in ten of each round's level-3 residents: every cancel
  // frees its slot at once, so the arena stays at one round's worth, and
  // the run must still fire the survivors.
  Simulator sim;
  std::vector<EventId> ids;
  std::uint64_t fired = 0;
  for (int round = 0; round < 200; ++round) {
    ids.clear();
    for (int i = 0; i < 500; ++i) {
      ids.push_back(sim.schedule_after(
          Duration::millis(300 + (i % 7)), [&fired] { ++fired; }));
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (i % 10 != 0) {
        ASSERT_TRUE(sim.cancel(ids[i]));
      }
    }
    sim.run();
  }
  EXPECT_EQ(fired, 200u * 50u);
  EXPECT_LE(sim.arena_slots(), 500u);
}

// Events run in their slab slot. A callback that throws must still leave
// the simulator exact: its slot freed (captures destroyed), any re-arm it
// issued revoked, its handle stale, and the rest of the queue runnable.
TEST(EventCoreChurn, ThrowingCallbackLeavesSimulatorConsistent) {
  Simulator sim;
  std::vector<int> order;
  auto witness = std::make_shared<int>(7);
  sim.schedule_after(Duration::micros(1), [&order] { order.push_back(1); });
  EventId thrower{};
  thrower = sim.schedule_after(Duration::micros(2), [&sim, &thrower, witness] {
    sim.reschedule_after(thrower, Duration::micros(5));
    throw std::runtime_error("callback failed");
  });
  sim.schedule_after(Duration::micros(3), [&order] { order.push_back(3); });
  sim.schedule_after(Duration::millis(400), [&order] { order.push_back(4); });
  const std::size_t slots = sim.arena_slots();
  EXPECT_EQ(witness.use_count(), 2);

  ASSERT_TRUE(sim.step());
  EXPECT_THROW(sim.step(), std::runtime_error);
  EXPECT_EQ(sim.now().ns, 2'000);
  EXPECT_EQ(sim.pending(), 2u);  // the re-arm died with the callback
  EXPECT_FALSE(sim.is_scheduled(thrower));
  EXPECT_FALSE(sim.is_executing(thrower));
  EXPECT_FALSE(sim.cancel(thrower));
  EXPECT_EQ(witness.use_count(), 1);  // the Task's captures were destroyed

  // The freed slot is the next one handed out, under a new generation.
  const EventId next = sim.schedule_after(Duration::nanos(500),
                                          [&order] { order.push_back(2); });
  EXPECT_EQ(next.slot, thrower.slot);
  EXPECT_NE(next.gen, thrower.gen);
  EXPECT_EQ(sim.arena_slots(), slots);
  EXPECT_FALSE(sim.cancel(thrower));
  EXPECT_TRUE(sim.is_scheduled(next));
  EXPECT_EQ(sim.pending(), 3u);

  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.pending(), 0u);
}

// A running callback that grows the slab by a whole chunk and then re-arms
// itself: its record and captures must survive the growth in place.
TEST(EventCoreChurn, CallbackGrowingSlabReArmsWithCapturesIntact) {
  struct Log {
    EventId id;
    std::vector<std::int64_t> fired_at;
    std::vector<std::vector<int>> payloads;
    std::vector<std::uint64_t> tags;
    std::uint64_t spawned_fired{0};
  } log;
  Simulator sim;
  const std::vector<int> payload{3, 1, 4, 1, 5, 9, 2, 6};
  const std::uint64_t tag = 0xfeedface;
  // 8 + 8 + 24 + 8 bytes of captures: the Task holds them inline.
  log.id = sim.schedule_after(Duration::micros(20), [&sim, &log, payload, tag] {
    log.fired_at.push_back(sim.now().ns);
    log.payloads.push_back(payload);
    log.tags.push_back(tag);
    if (log.fired_at.size() > 1) return;
    for (int i = 0; i < 300; ++i) {
      sim.schedule_after(Duration::nanos(100 + i),
                         [&log] { ++log.spawned_fired; });
    }
    sim.reschedule_after(log.id, Duration::micros(20));
  });
  sim.run();

  EXPECT_EQ(sim.kernel_stats().arena_chunks, 2u);  // 301 slots > 256
  EXPECT_EQ(log.spawned_fired, 300u);
  EXPECT_EQ(log.fired_at, (std::vector<std::int64_t>{20'000, 40'000}));
  ASSERT_EQ(log.payloads.size(), 2u);
  for (const auto& p : log.payloads) EXPECT_EQ(p, payload);
  EXPECT_EQ(log.tags, (std::vector<std::uint64_t>{tag, tag}));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_executed(), 302u);
}

}  // namespace
}  // namespace stopwatch::sim
