// The trace recorder's export contract: clear() drops every event,
// events serialize stable-sorted by (ts, pid, tid) with integer-exact
// microsecond timestamps, and kParallel tracks stay out of the default
// export — the properties behind the cross-shard byte-identity guarantee.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace stopwatch::obs {
namespace {

TEST(TraceRecorder, ClearDropsEveryEvent) {
  TraceRecorder rec;
  TraceTrack* t = rec.track(1, 0, "proc", "thread");
  t->instant(100, "ev");
  t->complete(200, 50, "span");
  t->counter(300, "ctr", "v", 7);
  EXPECT_EQ(rec.event_count(), 3u);

  rec.clear();
  EXPECT_EQ(rec.event_count(), 0u);
}

TEST(TraceRecorder, TrackIdentityIsPidTid) {
  TraceRecorder rec;
  TraceTrack* a = rec.track(5, 2, "p", "t");
  EXPECT_EQ(a, rec.track(5, 2, "ignored", "ignored"));
  EXPECT_NE(a, rec.track(5, 3, "p", "t2"));
}

TEST(TraceRecorder, ExportSortsByTsThenPidTidAndFormatsMicroseconds) {
  TraceRecorder rec;
  // Created out of identity order on purpose: export must not depend on
  // creation order.
  TraceTrack* late = rec.track(2, 0, "proc-b", "row");
  TraceTrack* early = rec.track(1, 0, "proc-a", "row");
  late->instant(1500, "tie");           // 1.500 us, pid 2
  early->instant(1500, "tie");          // 1.500 us, pid 1 — sorts first
  early->complete(2000, 250, "span");   // ts 2.000, dur 0.250
  late->instant(999, "first");          // 0.999 us — earliest

  const std::string json = rec.export_json();
  // Metadata precedes events, processes in pid order.
  const auto meta_a = json.find("\"name\": \"proc-a\"");
  const auto meta_b = json.find("\"name\": \"proc-b\"");
  ASSERT_NE(meta_a, std::string::npos);
  ASSERT_NE(meta_b, std::string::npos);
  EXPECT_LT(meta_a, meta_b);

  const auto first = json.find("\"ts\": 0.999, \"pid\": 2");
  const auto tie_p1 = json.find("\"ts\": 1.500, \"pid\": 1");
  const auto tie_p2 = json.find("\"ts\": 1.500, \"pid\": 2");
  const auto span = json.find("\"dur\": 0.250, \"pid\": 1");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(tie_p1, std::string::npos);
  ASSERT_NE(tie_p2, std::string::npos);
  ASSERT_NE(span, std::string::npos);
  EXPECT_LT(first, tie_p1);
  EXPECT_LT(tie_p1, tie_p2);
  EXPECT_LT(tie_p2, span);

  // Two exports of the same recorder are byte-identical.
  EXPECT_EQ(json, rec.export_json());
}

TEST(TraceRecorder, ParallelTracksAreOptIn) {
  TraceRecorder rec;
  TraceTrack* sim_track = rec.track(1, 0, "vm", "v0");
  TraceTrack* par = rec.track(800, 0, "parallel", "barriers",
                              Category::kParallel);
  sim_track->instant(10, "ingress");
  par->complete(10, 5, "window");

  const std::string def = rec.export_json();
  EXPECT_NE(def.find("\"ingress\""), std::string::npos);
  EXPECT_EQ(def.find("\"window\""), std::string::npos);
  EXPECT_EQ(def.find("\"barriers\""), std::string::npos);

  const std::string with = rec.export_json(/*include_parallel=*/true);
  EXPECT_NE(with.find("\"window\""), std::string::npos);
  EXPECT_NE(with.find("\"barriers\""), std::string::npos);
}

TEST(TraceRecorder, EscapesQuotesInTrackNames) {
  TraceRecorder rec;
  rec.track(1, 0, "p", "vm \"quoted\"\nname");
  const std::string json = rec.export_json();
  EXPECT_NE(json.find("vm \\\"quoted\\\"\\nname"), std::string::npos);
}

/// Schedules `n` no-op events after the kernel's current time and runs
/// them.
void run_events(sim::Simulator& simulator, std::uint64_t n) {
  const std::int64_t base = simulator.now().ns + 1;
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto at = RealTime::nanos(base + static_cast<std::int64_t>(i));
    simulator.schedule_at(at, [] {});
  }
  simulator.run();
}

TEST(KernelTrack, RecordsEventsExecutedCounterFromTheAttachedTrack) {
  TraceRecorder rec;
  sim::Simulator simulator;
  run_events(simulator, sim::Simulator::kTraceSampleEvery);  // detached
  TraceTrack* t =
      rec.track(900, 0, "sim-kernel", "core-0", Category::kParallel);
  simulator.set_trace_track(t);
  run_events(simulator, 2 * sim::Simulator::kTraceSampleEvery);
  EXPECT_EQ(rec.event_count(), 2u);
  const std::string json = rec.export_json(/*include_parallel=*/true);
  EXPECT_NE(json.find("\"events_executed\""), std::string::npos);
  EXPECT_NE(json.find("{\"executed\": 8192}"), std::string::npos);
  EXPECT_NE(json.find("{\"executed\": 12288}"), std::string::npos);
}

TEST(KernelTrack, SamplesEveryPowerOfTwoIntervalUntilDetached) {
  // One sample per kTraceSampleEvery executed events; a detached kernel
  // records nothing.
  TraceRecorder rec;
  sim::Simulator simulator;
  TraceTrack* t =
      rec.track(901, 0, "sim-kernel", "core-0", Category::kParallel);
  simulator.set_trace_track(t);
  run_events(simulator, 2 * sim::Simulator::kTraceSampleEvery + 10);
  EXPECT_EQ(rec.event_count(), 2u);
  simulator.set_trace_track(nullptr);
  run_events(simulator, 2 * sim::Simulator::kTraceSampleEvery);
  EXPECT_EQ(rec.event_count(), 2u);
}

TEST(ActiveTrace, InstallAndClear) {
  EXPECT_EQ(active_trace(), nullptr);
  TraceRecorder rec;
  set_active_trace(&rec);
  EXPECT_EQ(active_trace(), &rec);
  set_active_trace(nullptr);
  EXPECT_EQ(active_trace(), nullptr);
}

TEST(ActiveTrace, DestroyedRecorderUninstallsItself) {
  EXPECT_EQ(active_trace(), nullptr);
  {
    TraceRecorder rec;
    set_active_trace(&rec);
    EXPECT_EQ(active_trace(), &rec);
  }
  EXPECT_EQ(active_trace(), nullptr);
  // A recorder that is not the installed one leaves the installed one be.
  TraceRecorder installed;
  set_active_trace(&installed);
  { TraceRecorder other; }
  EXPECT_EQ(active_trace(), &installed);
  set_active_trace(nullptr);
}

}  // namespace
}  // namespace stopwatch::obs
