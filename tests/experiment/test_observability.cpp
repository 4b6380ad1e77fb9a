// The observability guarantees end to end: a traced scenario serializes
// to byte-identical trace JSON whether the event core runs on 1 or 4
// simulator shards and whether the runner uses 1 or 8 jobs (a sweep
// scenario's too, whose clouds would otherwise run in parallel); the
// `observability` report block is present, populated, and — since some of
// its counters legitimately depend on sim_shards — strippable, leaving
// the rest of the report byte-identical across the knob.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "experiment/registry.hpp"
#include "experiment/result.hpp"
#include "experiment/runner.hpp"
#include "obs/trace.hpp"

namespace stopwatch::experiment {
namespace {

const ParamOverrides kSmallPlacement = {{"machines", "99"},
                                        {"driven_vms", "8"},
                                        {"run_time_s", "0.4"},
                                        {"pair_samples", "2000"}};

/// Runs `name` with a fresh installed recorder and returns the default
/// (shard-count-invariant) trace export.
std::string trace_of_scenario(const std::string& name,
                              const ParamOverrides& overrides,
                              std::uint64_t jobs) {
  obs::TraceRecorder recorder;
  obs::set_active_trace(&recorder);
  const Scenario* scenario = ScenarioRegistry::instance().find(name);
  EXPECT_NE(scenario, nullptr);
  const auto outcomes =
      run_scenarios({scenario}, overrides, /*seed=*/11, /*smoke=*/true, jobs);
  obs::set_active_trace(nullptr);
  EXPECT_EQ(outcomes.size(), 1u);
  for (const auto& o : outcomes) EXPECT_TRUE(o.ok) << o.error;
  EXPECT_GT(recorder.event_count(), 0u);
  return recorder.export_json();
}

/// The trace of a small placement_e2e run on `shards` simulator cores.
std::string trace_of(const std::string& shards, std::uint64_t jobs) {
  ParamOverrides overrides = kSmallPlacement;
  overrides["sim_shards"] = shards;
  return trace_of_scenario("placement_e2e", overrides, jobs);
}

TEST(Observability, TraceByteIdenticalAcrossShardCounts) {
  // The tentpole guarantee: track identities are shard-count-invariant and
  // the export sort is deterministic, so the trace bytes cannot tell 1
  // simulator core from 4.
  const std::string one = trace_of("1", /*jobs=*/1);
  const std::string four = trace_of("4", /*jobs=*/1);
  EXPECT_EQ(one, four);
  // Frame-lifecycle vocabulary is actually in there.
  EXPECT_NE(one.find("\"ingress\""), std::string::npos);
  EXPECT_NE(one.find("\"release\""), std::string::npos);
  EXPECT_NE(one.find("\"boot\""), std::string::npos);
}

TEST(Observability, TraceByteIdenticalAcrossJobs) {
  // The budget is 1 thread at --jobs 1 and 8 at --jobs 8; the recorder
  // must serialize the same bytes either way.
  const std::string inline_run = trace_of("2", /*jobs=*/1);
  const std::string pooled_run = trace_of("2", /*jobs=*/8);
  EXPECT_EQ(inline_run, pooled_run);
}

TEST(Observability, SweepTraceByteIdenticalAcrossJobs) {
  // A sweep's clouds ask for the same track identities, and a track has
  // one writer: under a recorder the points run in turn whatever the
  // budget, so the trace cannot tell --jobs 4 from --jobs 1.
  const ParamOverrides overrides = {{"run_time_s", "1"}};
  const std::string one =
      trace_of_scenario("delta_calibration", overrides, /*jobs=*/1);
  const std::string four =
      trace_of_scenario("delta_calibration", overrides, /*jobs=*/4);
  EXPECT_EQ(one, four);
  EXPECT_NE(one.find("\"ingress\""), std::string::npos);
}

TEST(Observability, ParallelTracksExistButStayOutOfDefaultExport) {
  obs::TraceRecorder recorder;
  obs::set_active_trace(&recorder);
  ParamOverrides overrides = kSmallPlacement;
  overrides["sim_shards"] = std::string("4");
  static_cast<void>(ScenarioRegistry::instance().run("placement_e2e",
                                                     /*seed=*/11,
                                                     /*smoke=*/true,
                                                     overrides));
  obs::set_active_trace(nullptr);
  // Barrier windows and per-core kernel counters recorded on a 4-shard
  // run, but only the opt-in export shows them.
  const std::string def = recorder.export_json();
  const std::string parallel = recorder.export_json(/*include_parallel=*/true);
  EXPECT_EQ(def.find("\"barriers\""), std::string::npos);
  EXPECT_NE(parallel.find("\"barriers\""), std::string::npos);
  EXPECT_NE(parallel.find("\"sim-kernel\""), std::string::npos);
  EXPECT_GT(parallel.size(), def.size());
}

TEST(Observability, ReportBlockIsPresentAndPopulated) {
  const Result r = ScenarioRegistry::instance().run(
      "placement_e2e", /*seed=*/7, /*smoke=*/true, kSmallPlacement);
  const auto& snap = r.observability();
  ASSERT_FALSE(snap.empty());
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  EXPECT_GT(counter("sim.events_scheduled"), 0u);
  EXPECT_GT(counter("sim.events_executed"), 0u);
  EXPECT_GT(counter("net.frames_sent.guest_packet"), 0u);
  EXPECT_GT(counter("policy.replica_aggregations"), 0u);
  EXPECT_EQ(counter("topology.divergences"), 0u);
  // The histograms made it through, and so did the serialized block.
  bool saw_bytes_histogram = false;
  for (const auto& [name, h] : snap.histograms) {
    if (name == "net.frame_bytes") {
      saw_bytes_histogram = h.count > 0;
    }
  }
  EXPECT_TRUE(saw_bytes_histogram);
  EXPECT_NE(r.to_json().find("\"observability\""), std::string::npos);
}

/// The part of a report that must not depend on sim_shards: the trailing
/// `observability` block (shard-count-dependent counters by design) is
/// truncated and the stamped sim_shards value blanked.
std::string shard_invariant_json(const Result& r, const std::string& shards) {
  std::string json = r.to_json();
  const std::string marker = ",\n  \"observability\"";
  const std::size_t at = json.find(marker);
  EXPECT_NE(at, std::string::npos);
  if (at != std::string::npos) {
    json.erase(at);
    json += "\n}";
  }
  const std::string stamp = "\"sim_shards\": " + shards;
  const std::size_t stamp_at = json.find(stamp);
  EXPECT_NE(stamp_at, std::string::npos) << json.substr(0, 400);
  if (stamp_at != std::string::npos) {
    json.replace(stamp_at, stamp.size(), "\"sim_shards\": _");
  }
  return json;
}

TEST(Observability, ShardCountsByteIdenticalOutsideTheBlock) {
  // Every sharded cloud scenario takes the same lazy-wiring + activation
  // path whatever the shard count, so its report differs only in the
  // stripped block and the knob's own stamp. fig6_nfs truncates
  // run_time_s to whole seconds, hence its 1 s run.
  struct Case {
    const char* scenario;
    std::uint64_t seed;
    ParamOverrides overrides;
    const char* shards;
  };
  const ParamOverrides small_leakage = {{"trials_per_class", "3"},
                                        {"parsec_trials", "2"},
                                        {"nfs_window_s", "0.3"},
                                        {"nfs_rounds", "1"}};
  const std::vector<Case> cases = {
      {"placement_e2e", 11, kSmallPlacement, "4"},
      {"fig6_nfs", 13, {{"run_time_s", "1"}, {"rate_count", "1"}}, "2"},
      {"fig7_parsec", 17, {{"app_count", "1"}, {"runs_per_app", "1"}}, "4"},
      {"leakage_workloads", 13, small_leakage, "3"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.scenario);
    const auto run_with = [&c](const std::string& shards) {
      ParamOverrides overrides = c.overrides;
      overrides["sim_shards"] = shards;
      return shard_invariant_json(
          ScenarioRegistry::instance().run(c.scenario, c.seed,
                                           /*smoke=*/true, overrides),
          shards);
    };
    EXPECT_EQ(run_with("1"), run_with(c.shards));
  }
}

}  // namespace
}  // namespace stopwatch::experiment
