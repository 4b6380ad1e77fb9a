// The profiler's accounting contract: nested scopes subtract child time
// from parent self time (so attributed_ns never double counts), an
// uninstalled profiler records nothing, per-thread slots merge into one
// snapshot, the JSON schema lists every registry phase in order, and
// collapsed stacks render the call paths flamegraph tools expect.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/profiler.hpp"

namespace stopwatch::obs {
namespace {

constexpr std::size_t kSetup = prof_phase_index("scenario.setup");
constexpr std::size_t kDrive = prof_phase_index("scenario.drive");
constexpr std::size_t kRun = prof_phase_index("cloud.run");

void spin_for(std::chrono::microseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

/// Installs `p` as the active profiler for the test's duration.
class ActiveProfiler {
 public:
  explicit ActiveProfiler(Profiler* p) : previous_(active_profiler()) {
    set_active_profiler(p);
  }
  ~ActiveProfiler() { set_active_profiler(previous_); }

 private:
  Profiler* previous_;
};

TEST(Profiler, NestedScopesSubtractChildTimeFromParentSelf) {
  Profiler profiler;
  ActiveProfiler install(&profiler);
  {
    OBS_PROF_SCOPE("scenario.drive");
    spin_for(std::chrono::microseconds(2000));
    {
      OBS_PROF_SCOPE("cloud.run");
      spin_for(std::chrono::microseconds(4000));
    }
  }

  const ProfilerSnapshot snap = profiler.snapshot();
  const auto& drive = snap.phases[kDrive];
  const auto& run = snap.phases[kRun];
  EXPECT_EQ(drive.calls, 1u);
  EXPECT_EQ(run.calls, 1u);
  // Parent total includes the child; parent self does not.
  EXPECT_GE(drive.total_ns, run.total_ns);
  EXPECT_EQ(drive.self_ns, drive.total_ns - run.total_ns);
  EXPECT_EQ(run.self_ns, run.total_ns);
  // attributed_ns is the sum of self times — no double counting, so it
  // cannot exceed the root's inclusive time.
  EXPECT_EQ(snap.attributed_ns(), drive.self_ns + run.self_ns);
  EXPECT_LE(snap.attributed_ns(), drive.total_ns);
}

TEST(Profiler, UninstalledRecordsNothing) {
  Profiler profiler;
  {
    // Not installed: the scope sees no active profiler.
    OBS_PROF_SCOPE("scenario.setup");
    spin_for(std::chrono::microseconds(100));
  }
  const ProfilerSnapshot snap = profiler.snapshot();
  EXPECT_EQ(snap.phases[kSetup].calls, 0u);
  EXPECT_EQ(snap.attributed_ns(), 0u);
  EXPECT_TRUE(snap.paths.empty());
}

TEST(Profiler, SnapshotMergesThreadSlots) {
  Profiler profiler;
  ActiveProfiler install(&profiler);
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 50;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        OBS_PROF_SCOPE("sharded.merge");
        spin_for(std::chrono::microseconds(10));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  const ProfilerSnapshot snap = profiler.snapshot();
  const auto& merge = snap.phases[prof_phase_index("sharded.merge")];
  EXPECT_EQ(merge.calls,
            static_cast<std::uint64_t>(kThreads * kCallsPerThread));
  EXPECT_GT(merge.self_ns, 0u);
  // All threads ran the same single-phase path, so the paths collapse to
  // one entry carrying every call.
  ASSERT_EQ(snap.paths.size(), 1u);
  EXPECT_EQ(snap.paths[0].stack, "sharded.merge");
  EXPECT_EQ(snap.paths[0].calls, merge.calls);
  EXPECT_EQ(snap.paths[0].self_ns, merge.self_ns);
}

TEST(Profiler, CollapsedStacksRenderSemicolonPaths) {
  Profiler profiler;
  ActiveProfiler install(&profiler);
  {
    OBS_PROF_SCOPE("scenario.drive");
    {
      OBS_PROF_SCOPE("cloud.run");
      spin_for(std::chrono::microseconds(200));
    }
  }

  const ProfilerSnapshot snap = profiler.snapshot();
  const std::string stacks = collapsed_stacks(snap);
  // One line per path, "a;b self_ns", paths sorted by stack string.
  EXPECT_NE(stacks.find("scenario.drive "), std::string::npos);
  EXPECT_NE(stacks.find("scenario.drive;cloud.run "), std::string::npos);
  std::size_t lines = 0;
  for (const char c : stacks) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, snap.paths.size());
}

TEST(Profiler, ClearDropsDataButKeepsRecording) {
  Profiler profiler;
  ActiveProfiler install(&profiler);
  {
    OBS_PROF_SCOPE("scenario.setup");
    spin_for(std::chrono::microseconds(100));
  }
  EXPECT_GT(profiler.snapshot().phases[kSetup].calls, 0u);
  profiler.clear();
  EXPECT_EQ(profiler.snapshot().phases[kSetup].calls, 0u);
  EXPECT_TRUE(profiler.snapshot().paths.empty());
  {
    OBS_PROF_SCOPE("scenario.setup");
  }
  // The thread slot survived the clear and keeps recording.
  EXPECT_EQ(profiler.snapshot().phases[kSetup].calls, 1u);
}

TEST(Profiler, JsonSchemaListsEveryPhaseInRegistryOrder) {
  // The schema guarantee: all phases appear, in kProfPhases order, zeros
  // included — so the *shape* of the profile block is byte-stable across
  // runs even though the wall values are measurements.
  const ProfilerSnapshot empty;
  const std::string json =
      profile_to_json(empty, /*wall_ns=*/1000, /*rss_bytes=*/0,
                      /*rss_peak_bytes=*/0);
  EXPECT_NE(json.find("\"schema\": \"stopwatch-profile/1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"wall_ns\": 1000"), std::string::npos);
  EXPECT_NE(json.find("\"attributed_ns\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"other_ns\": 1000"), std::string::npos);
  std::size_t at = 0;
  for (const char* phase : kProfPhases) {
    const std::size_t found =
        json.find("\"name\": \"" + std::string(phase) + "\"", at);
    ASSERT_NE(found, std::string::npos) << phase;
    at = found;  // each phase appears after the previous one
  }
  // other_ns clamps at zero when attribution exceeds the wall sample.
  ProfilerSnapshot busy;
  busy.phases[kRun] = {1, 5000, 5000};
  const std::string clamped = profile_to_json(busy, /*wall_ns=*/1, 0, 0);
  EXPECT_NE(clamped.find("\"other_ns\": 0"), std::string::npos);
}

TEST(Profiler, RssSamplersReportThisProcess) {
  // Linux /proc/self/status backs both; a real process is resident.
  const std::uint64_t rss = process_rss_bytes();
  const std::uint64_t peak = process_rss_peak_bytes();
  EXPECT_GT(rss, 0u);
  EXPECT_GE(peak, rss / 2);  // peak >= current modulo sampling slack
}

}  // namespace
}  // namespace stopwatch::obs
