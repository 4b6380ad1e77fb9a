// The self-profiling acceptance contract, end to end: an installed profiler
// over placement_e2e attributes >= 90% of the measured wall time to named
// phases; the profile block's *schema* (names/structure, digits aside) is
// identical across sim_shards and --jobs, apart from one busy-time entry
// per sharded core; the deterministic `timeseries` block is
// byte-identical across those knobs; the memory-accounting gauges are
// populated; and the leakage_workloads MI series stays inside its fixed
// window budget on a 10x-horizon run.
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "experiment/registry.hpp"
#include "experiment/result.hpp"
#include "experiment/runner.hpp"
#include "obs/profiler.hpp"

namespace stopwatch::experiment {
namespace {

const ParamOverrides kSmallPlacement = {{"machines", "99"},
                                        {"driven_vms", "8"},
                                        {"run_time_s", "0.4"},
                                        {"pair_samples", "2000"}};

TEST(Profile, AttributesAtLeastNinetyPercentOfPlacementE2eWall) {
  obs::Profiler profiler;
  obs::Profiler* const previous = obs::active_profiler();
  obs::set_active_profiler(&profiler);
  const auto t0 = std::chrono::steady_clock::now();
  const Result r = ScenarioRegistry::instance().run(
      "placement_e2e", /*seed=*/11, /*smoke=*/true, kSmallPlacement);
  const auto t1 = std::chrono::steady_clock::now();
  obs::set_active_profiler(previous);
  ASSERT_FALSE(r.metrics().empty());

  const auto wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  const obs::ProfilerSnapshot snap = profiler.snapshot();
  const std::uint64_t attributed = snap.attributed_ns();
  EXPECT_GE(static_cast<double>(attributed),
            0.90 * static_cast<double>(wall_ns))
      << "attributed " << attributed << " of wall " << wall_ns << " ("
      << 100.0 * static_cast<double>(attributed) /
             static_cast<double>(wall_ns)
      << "%)";
  // Attribution is self-time based, so it can never exceed the wall.
  EXPECT_LE(attributed, wall_ns);
  // The load-bearing phases all fired.
  for (const char* phase :
       {"cloud.run", "sim.harvest", "scenario.setup", "scenario.drive",
        "scenario.analysis", "scenario.placement", "policy.release"}) {
    std::size_t index = 0;
    for (; index < obs::kProfPhaseCount; ++index) {
      if (std::string(obs::kProfPhases[index]) == phase) break;
    }
    EXPECT_GT(snap.phases[index].calls, 0u) << phase;
  }
}

/// Digit runs replaced by '#': what remains is the schema — field names,
/// phase names, structure, punctuation — with every measurement erased.
std::string schema_shape(const std::string& json) {
  std::string out;
  bool in_digits = false;
  for (const char c : json) {
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      if (!in_digits) out += '#';
      in_digits = true;
    } else {
      in_digits = false;
      out += c;
    }
  }
  return out;
}

/// Runs placement_e2e under an installed profiler and returns the profile
/// JSON (wall/RSS values are measurements — callers compare shapes).
std::string profile_json_of(const std::string& shards, std::uint64_t jobs) {
  obs::Profiler profiler;
  obs::Profiler* const previous = obs::active_profiler();
  obs::set_active_profiler(&profiler);
  ParamOverrides overrides = kSmallPlacement;
  overrides["sim_shards"] = shards;
  const Scenario* scenario = ScenarioRegistry::instance().find("placement_e2e");
  EXPECT_NE(scenario, nullptr);
  const auto outcomes =
      run_scenarios({scenario}, overrides, /*seed=*/11, /*smoke=*/true, jobs);
  obs::set_active_profiler(previous);
  EXPECT_EQ(outcomes.size(), 1u);
  for (const auto& o : outcomes) EXPECT_TRUE(o.ok) << o.error;
  return obs::profile_to_json(profiler.snapshot(), /*wall_ns=*/1,
                              obs::process_rss_bytes(),
                              obs::process_rss_peak_bytes());
}

/// The `core_busy_ns` array of a profile JSON, and the JSON with that
/// array emptied.
std::pair<std::string, std::string> split_core_busy(const std::string& json) {
  const std::string key = "\"core_busy_ns\": [";
  const std::size_t begin = json.find(key);
  EXPECT_NE(begin, std::string::npos);
  if (begin == std::string::npos) return {"", json};
  const std::size_t open = begin + key.size();
  const std::size_t close = json.find(']', open);
  return {json.substr(open, close - open),
          json.substr(0, open) + json.substr(close)};
}

TEST(Profile, SchemaIsStableAcrossShardCountsAndJobs) {
  // The values are wall-clock measurements, but the shape — every phase
  // name, field, and separator — must not know how many simulator shards
  // or runner jobs produced it. The one exception is `core_busy_ns`, one
  // entry per sharded core: empty on the sequential kernel, four entries
  // on four cores.
  const auto [one_cores, one] = split_core_busy(profile_json_of("1", 1));
  const auto [four_cores, four] = split_core_busy(profile_json_of("4", 1));
  const auto [pooled_cores, pooled] =
      split_core_busy(profile_json_of("1", /*jobs=*/8));
  EXPECT_EQ(schema_shape(one), schema_shape(four));
  EXPECT_EQ(schema_shape(one), schema_shape(pooled));
  EXPECT_NE(schema_shape(one).find("\"schema\": \"stopwatch-profile/#\""),
            std::string::npos);
  EXPECT_EQ(one_cores, "");
  EXPECT_EQ(pooled_cores, "");
  EXPECT_EQ(schema_shape(four_cores), "#, #, #, #");
}

/// The serialized `timeseries` block of a small placement_e2e run.
std::string timeseries_block_of(const std::string& shards,
                                std::uint64_t jobs) {
  ParamOverrides overrides = kSmallPlacement;
  overrides["sim_shards"] = shards;
  const Scenario* scenario = ScenarioRegistry::instance().find("placement_e2e");
  EXPECT_NE(scenario, nullptr);
  const auto outcomes =
      run_scenarios({scenario}, overrides, /*seed=*/11, /*smoke=*/true, jobs);
  EXPECT_EQ(outcomes.size(), 1u);
  for (const auto& o : outcomes) EXPECT_TRUE(o.ok) << o.error;
  const std::string json = outcomes[0].result.to_json();
  const std::size_t begin = json.find("\"timeseries\"");
  EXPECT_NE(begin, std::string::npos);
  // The block is serialized immediately before `observability` (or the
  // closing brace), so slicing up to that marker isolates it.
  std::size_t end = json.find("\"observability\"", begin);
  if (end == std::string::npos) end = json.size();
  return json.substr(begin, end - begin);
}

TEST(Profile, TimeSeriesBlockByteIdenticalAcrossShardsAndJobs) {
  // Unlike the profile (wall measurements) and `observability`
  // (shard-dependent counters), the sim-time-keyed rollups are fully
  // deterministic: same bytes on 1 and 4 shards, inline and pooled.
  const std::string one = timeseries_block_of("1", /*jobs=*/1);
  const std::string four = timeseries_block_of("4", /*jobs=*/1);
  const std::string pooled = timeseries_block_of("4", /*jobs=*/8);
  EXPECT_EQ(one, four);
  EXPECT_EQ(four, pooled);
  EXPECT_NE(one.find("egress.release_latency_ns"), std::string::npos);
  EXPECT_NE(one.find("\"windows\""), std::string::npos);
}

TEST(Profile, MemoryAccountingGaugesArePopulated) {
  const Result r = ScenarioRegistry::instance().run(
      "placement_e2e", /*seed=*/7, /*smoke=*/true, kSmallPlacement);
  const auto& snap = r.observability();
  ASSERT_FALSE(snap.empty());
  const auto gauge = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : snap.gauges) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "missing gauge " << name;
    return 0;
  };
  EXPECT_GT(gauge("mem.arena_bytes"), 0u);
  EXPECT_GT(gauge("mem.live_events_highwater"), 0u);
  EXPECT_GT(gauge("mem.due_highwater"), 0u);
  // The gauges serialize inside the observability block.
  EXPECT_NE(r.to_json().find("\"gauges\""), std::string::npos);
}

TEST(Profile, LeakageTimeSeriesStaysInBudgetOnTenTimesHorizon) {
  // leakage_workloads' default NFS window is 0.7 simulated seconds; a 10x
  // horizon must coarsen the MI-observation series instead of growing it.
  // Budget: 64 windows (see leakage_workloads.cpp), each a fixed-size
  // rollup — so the snapshot itself proves bounded memory.
  const Result r = ScenarioRegistry::instance().run(
      "leakage_workloads", /*seed=*/5, /*smoke=*/true,
      {{"nfs_window_s", "7.0"},
       {"trials_per_class", "20"},
       {"parsec_trials", "2"}});
  ASSERT_FALSE(r.timeseries().empty());
  bool saw_mi_series = false;
  for (const auto& [name, ts] : r.timeseries()) {
    if (name.rfind("mi_observations_us_", 0) == 0) {
      saw_mi_series = true;
      EXPECT_EQ(ts.budget_windows, 64u) << name;
      EXPECT_LE(ts.windows.size(), 64u) << name;
      std::uint64_t total = 0;
      for (const auto& [start, w] : ts.windows) total += w.count;
      EXPECT_GT(total, 0u) << name;
      // Coverage reaches the stretched horizon: the last window starts
      // at or after trial activity near the end of the 10x run.
      EXPECT_GT(ts.window_ns, 0) << name;
    }
  }
  EXPECT_TRUE(saw_mi_series);
}

}  // namespace
}  // namespace stopwatch::experiment
