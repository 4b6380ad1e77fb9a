// The CLI composition rules for process-wide side outputs (--trace,
// --profile): multi-scenario selections run at --jobs 1 (the default for
// them; --jobs otherwise defaults to one thread per hardware thread) and
// then write one suffixed file per scenario; an explicit parallel --jobs
// fails up front with a named error instead of corrupting a shared
// session; and per_scenario_path derives the suffixed names
// deterministically.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "experiment/runner.hpp"

namespace stopwatch::experiment {
namespace {

TEST(PerScenarioPath, InsertsScenarioBeforeFinalExtension) {
  EXPECT_EQ(per_scenario_path("out.json", "fig6_nfs"), "out.fig6_nfs.json");
  EXPECT_EQ(per_scenario_path("trace.perfetto.json", "a"),
            "trace.perfetto.a.json");
  // Extensionless paths just append.
  EXPECT_EQ(per_scenario_path("profile", "fig6_nfs"), "profile.fig6_nfs");
  // A dot in a directory name is not an extension.
  EXPECT_EQ(per_scenario_path("out.d/profile", "x"), "out.d/profile.x");
  EXPECT_EQ(per_scenario_path("out.d/profile.json", "x"),
            "out.d/profile.x.json");
}

TEST(RunnerOptions, ParsesProfileFlag) {
  const char* argv[] = {"stopwatch_bench", "--scenario", "fig1_median_analytic",
                        "--profile", "/tmp/p.json"};
  RunnerOptions options;
  std::string error;
  ASSERT_TRUE(parse_runner_options(5, argv, options, error)) << error;
  EXPECT_EQ(options.profile_path, "/tmp/p.json");
  EXPECT_TRUE(options.trace_path.empty());
}

TEST(RunnerOptions, JobsDefaultsToOnePerHardwareThread) {
  const char* plain[] = {"stopwatch_bench", "--scenario", "delta_calibration"};
  RunnerOptions options;
  std::string error;
  ASSERT_TRUE(parse_runner_options(3, plain, options, error)) << error;
  EXPECT_FALSE(options.jobs.has_value());
  // 0 = one thread per hardware thread, for one scenario or many.
  EXPECT_EQ(effective_jobs(options, 1), 0u);
  EXPECT_EQ(effective_jobs(options, 18), 0u);
  // A side output keeps a lone scenario's default, but several scenarios
  // share one process-wide session and so run one at a time.
  options.profile_path = "p.json";
  EXPECT_EQ(effective_jobs(options, 1), 0u);
  EXPECT_EQ(effective_jobs(options, 2), 1u);
  options.profile_path.clear();
  options.trace_path = "t.json";
  EXPECT_EQ(effective_jobs(options, 2), 1u);

  const char* explicit_jobs[] = {"stopwatch_bench", "--all", "--jobs", "3"};
  RunnerOptions given;
  ASSERT_TRUE(parse_runner_options(4, explicit_jobs, given, error)) << error;
  EXPECT_EQ(given.jobs, 3u);
  EXPECT_EQ(effective_jobs(given, 18), 3u);
}

int run(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "stopwatch_bench");
  return run_cli(static_cast<int>(argv.size()), argv.data());
}

bool file_exists(const std::string& path) {
  return std::ifstream(path, std::ios::binary).is_open();
}

bool file_nonempty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  return !buf.str().empty();
}

TEST(RunnerCli, MultiScenarioSideOutputsRequireSequentialJobs) {
  // A trace/profile session is process-wide state; two scenarios writing
  // it concurrently would interleave. The CLI refuses with a named error
  // (exit 2 = usage, same as other malformed invocations) before running
  // anything.
  const std::string dir = ::testing::TempDir();
  const std::string profile = dir + "/sw_cli_refused.json";
  EXPECT_EQ(run({"--scenario", "fig1_median_analytic", "--scenario",
                 "fig8_noise_comparison", "--smoke", "--quiet", "--jobs", "4",
                 "--profile", profile.c_str()}),
            2);
  EXPECT_FALSE(file_nonempty(profile));
  EXPECT_EQ(run({"--scenario", "fig1_median_analytic", "--scenario",
                 "fig8_noise_comparison", "--smoke", "--quiet", "--jobs", "4",
                 "--trace", profile.c_str()}),
            2);
  EXPECT_FALSE(file_nonempty(profile));
}

TEST(RunnerCli, SingleScenarioProfileWritesPlainPathPlusStacks) {
  // placement_utilization exercises the placement.theorem2 phase, so the
  // collapsed-stacks file carries real content, not just a valid header.
  const std::string dir = ::testing::TempDir();
  const std::string profile = dir + "/sw_cli_single.json";
  EXPECT_EQ(run({"--scenario", "placement_utilization", "--smoke", "--quiet",
                 "--profile", profile.c_str()}),
            0);
  EXPECT_TRUE(file_nonempty(profile));
  EXPECT_TRUE(file_nonempty(profile + ".stacks"));
  std::ifstream in(profile);
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"schema\": \"stopwatch-profile/1\""),
            std::string::npos);
  std::ifstream stacks_in(profile + ".stacks");
  std::ostringstream stacks;
  stacks << stacks_in.rdbuf();
  EXPECT_NE(stacks.str().find("placement.theorem2 "), std::string::npos);
  std::remove(profile.c_str());
  std::remove((profile + ".stacks").c_str());
}

TEST(RunnerCli, SequentialMultiScenarioWritesSuffixedFilesPerScenario) {
  // Without --jobs a multi-scenario session runs at --jobs 1, which makes
  // it well-defined: the runner exports and clears between scenarios, so
  // each file holds exactly its scenario's data.
  const std::string dir = ::testing::TempDir();
  const std::string profile = dir + "/sw_cli_multi.json";
  const std::string trace = dir + "/sw_cli_multi_trace.json";
  EXPECT_EQ(run({"--scenario", "fig1_median_analytic", "--scenario",
                 "fig8_noise_comparison", "--smoke", "--quiet", "--profile",
                 profile.c_str(), "--trace", trace.c_str()}),
            0);
  const std::string p1 =
      per_scenario_path(profile, "fig1_median_analytic");
  const std::string p2 =
      per_scenario_path(profile, "fig8_noise_comparison");
  EXPECT_FALSE(file_nonempty(profile));  // only the suffixed names exist
  EXPECT_TRUE(file_nonempty(p1));
  EXPECT_TRUE(file_nonempty(p2));
  // The stacks files are written either way; fig1/fig8 are analytic
  // scenarios that hit no instrumented phase, so theirs may be empty.
  EXPECT_TRUE(file_exists(p1 + ".stacks"));
  EXPECT_TRUE(file_exists(p2 + ".stacks"));
  EXPECT_TRUE(
      file_nonempty(per_scenario_path(trace, "fig1_median_analytic")));
  EXPECT_TRUE(
      file_nonempty(per_scenario_path(trace, "fig8_noise_comparison")));
  for (const std::string& f :
       {p1, p2, p1 + ".stacks", p2 + ".stacks",
        per_scenario_path(trace, "fig1_median_analytic"),
        per_scenario_path(trace, "fig8_noise_comparison")}) {
    std::remove(f.c_str());
  }
}

TEST(RunnerCli, UnwritableProfilePathFailsTheRun) {
  EXPECT_EQ(run({"--scenario", "fig1_median_analytic", "--smoke", "--quiet",
                 "--profile", "/nonexistent-dir/p.json"}),
            1);
}

TEST(RunnerCli, RejectsInvalidParamOverridesBeforeRunning) {
  // Every malformed --param fails the invocation as a usage error (exit
  // 2) before any scenario runs, so no report file is ever opened.
  const std::string json = ::testing::TempDir() + "/sw_cli_bad_param.json";
  for (const char* param :
       {"binning=bogus", "bins=abc", "run_time_s=0", "run_time_s=nan",
        "trials_per_class=2.5", "no_such_param=1"}) {
    std::remove(json.c_str());
    EXPECT_EQ(run({"--scenario", "policy_matrix", "--smoke", "--quiet",
                   "--param", param, "--json", json.c_str()}),
              2)
        << param;
    EXPECT_FALSE(file_exists(json)) << param;
  }
}

}  // namespace
}  // namespace stopwatch::experiment
