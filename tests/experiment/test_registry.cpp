// Unit tests of the experiment plumbing itself: registry lookup, parameter
// resolution (defaults / smoke values / overrides), the Result model, JSON
// emission, and the stopwatch_bench CLI parser.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "common/contracts.hpp"
#include "common/json_emit.hpp"
#include "experiment/registry.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"

namespace stopwatch::experiment {
namespace {

TEST(Json, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(json_string(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(Json, NumbersRoundTripShortest) {
  EXPECT_EQ(json_number(0.25), "0.25");
  EXPECT_EQ(json_number(3.0), "3");
  EXPECT_EQ(json_number(static_cast<std::uint64_t>(42)), "42");
  EXPECT_EQ(json_number(std::nan("")), "null");
}

TEST(ScenarioContext, ResolvesDefaultsSmokeAndOverrides) {
  const std::vector<ParamSpec> schema = {
      ParamSpec{"a", "", 10.0, 2.0},
      ParamSpec{"b", "", 5.0},
  };
  const ScenarioContext full(1, /*smoke=*/false, {}, schema);
  EXPECT_EQ(full.param("a"), 10.0);
  EXPECT_EQ(full.param("b"), 5.0);

  const ScenarioContext smoke(1, /*smoke=*/true, {}, schema);
  EXPECT_EQ(smoke.param("a"), 2.0);
  EXPECT_EQ(smoke.param("b"), 5.0);  // smoke value defaults to default_value

  const ScenarioContext overridden(1, /*smoke=*/true, {{"a", "7"}}, schema);
  EXPECT_EQ(overridden.param("a"), 7.0);

  EXPECT_THROW(static_cast<void>(full.param("missing")), ContractViolation);
  EXPECT_THROW(ScenarioContext(1, false, {{"unknown", "1"}}, schema),
               ContractViolation);
  // A numeric knob rejects non-numeric override text at the boundary.
  EXPECT_THROW(ScenarioContext(1, false, {{"a", "fast"}}, schema),
               ContractViolation);
}

TEST(ScenarioContext, ResolvesEnumParameters) {
  const std::vector<ParamSpec> schema = {
      ParamSpec::enumeration("mode", "aggregation rule", "median",
                             {"median", "min", "max"}),
      ParamSpec{"n", "", 4.0, 2.0}.with_int_range(1, 8),
  };
  const ScenarioContext defaulted(1, /*smoke=*/false, {}, schema);
  EXPECT_EQ(defaulted.param_choice("mode"), "median");
  EXPECT_EQ(defaulted.param_int("n"), 4);

  const ScenarioContext overridden(1, false, {{"mode", "max"}}, schema);
  EXPECT_EQ(overridden.param_choice("mode"), "max");
  // Stamped into the Result params as a JSON string, numerics as numbers.
  const auto resolved = overridden.resolved();
  ASSERT_EQ(resolved.size(), 2u);
  EXPECT_EQ(resolved[0].first, "mode");
  EXPECT_EQ(resolved[0].second, "\"max\"");
  EXPECT_EQ(resolved[1].second, "4");

  // Unknown choices are rejected up front, with the valid set named.
  try {
    ScenarioContext(1, false, {{"mode", "mean"}}, schema);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("median|min|max"), std::string::npos)
        << e.what();
  }
  // Kind mismatches fail the contract instead of returning garbage.
  EXPECT_THROW(static_cast<void>(defaulted.param("mode")), ContractViolation);
  EXPECT_THROW(static_cast<void>(defaulted.param_choice("n")),
               ContractViolation);
  // The enum factory rejects a default outside the choice list.
  EXPECT_THROW(static_cast<void>(ParamSpec::enumeration("bad", "", "none",
                                                        {"a", "b"})),
               ContractViolation);
}

TEST(ScenarioContext, RejectsOutOfRangeOverrides) {
  const std::vector<ParamSpec> schema = {
      ParamSpec{"count", "", 5.0, 2.0}.with_range(1, 5),
  };
  EXPECT_EQ(ScenarioContext(1, false, {{"count", "1"}}, schema).param("count"),
            1.0);
  EXPECT_EQ(ScenarioContext(1, false, {{"count", "5"}}, schema).param("count"),
            5.0);
  // A count knob without bounds would index an empty or out-of-bounds
  // vector inside the scenario; the context must reject it up front.
  EXPECT_THROW(ScenarioContext(1, false, {{"count", "0"}}, schema),
               ContractViolation);
  EXPECT_THROW(ScenarioContext(1, false, {{"count", "-1"}}, schema),
               ContractViolation);
  EXPECT_THROW(ScenarioContext(1, false, {{"count", "6"}}, schema),
               ContractViolation);
  // with_range itself rejects a schema whose defaults violate the range.
  EXPECT_THROW(static_cast<void>(ParamSpec{"bad", "", 9.0}.with_range(1, 5)),
               ContractViolation);
}

TEST(ScenarioContext, RejectsFractionalOverridesOfIntegralParams) {
  const std::vector<ParamSpec> schema = {
      ParamSpec{"n", "", 4.0, 2.0}.with_int_range(1, 8),
  };
  EXPECT_EQ(ScenarioContext(1, false, {{"n", "3"}}, schema).param_int("n"), 3);
  // Integral knobs feed param_int; a fractional override would fail deep
  // inside the scenario instead of at the boundary.
  EXPECT_THROW(ScenarioContext(1, false, {{"n", "2.5"}}, schema),
               ContractViolation);
  EXPECT_THROW(
      static_cast<void>(ParamSpec{"bad", "", 1.5}.with_int_range(1, 5)),
      ContractViolation);
}

TEST(Result, MetricsRejectDuplicatesAndLookupWorks) {
  Result r("x");
  r.add_metric("m", 1.0, "ms");
  EXPECT_TRUE(r.has_metric("m"));
  EXPECT_EQ(r.metric("m"), 1.0);
  EXPECT_THROW(r.add_metric("m", 2.0), ContractViolation);
  EXPECT_THROW(static_cast<void>(r.metric("absent")), ContractViolation);
}

TEST(Registry, FindAndListAreConsistent) {
  const auto& registry = ScenarioRegistry::instance();
  const auto all = registry.list();
  EXPECT_EQ(all.size(), registry.size());
  for (const Scenario* s : all) {
    EXPECT_EQ(registry.find(s->name), s);
  }
  EXPECT_EQ(registry.find("definitely_not_registered"), nullptr);
  // List is name-sorted so link order cannot leak into --list / reports.
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1]->name, all[i]->name);
  }
}

TEST(RunnerCli, ParsesTheCiInvocation) {
  const char* argv[] = {"stopwatch_bench", "--smoke", "--json",
                        "bench_smoke.json", "--quiet"};
  RunnerOptions options;
  std::string error;
  ASSERT_TRUE(parse_runner_options(5, argv, options, error)) << error;
  EXPECT_TRUE(options.smoke);
  EXPECT_TRUE(options.quiet);
  EXPECT_EQ(options.json_path, "bench_smoke.json");
  EXPECT_TRUE(options.scenarios.empty());
}

TEST(RunnerCli, ParsesScenarioSeedAndParams) {
  const char* argv[] = {"stopwatch_bench", "--scenario", "fig4_interpacket",
                        "--seed", "9", "--param", "run_time_s=2.5"};
  RunnerOptions options;
  std::string error;
  ASSERT_TRUE(parse_runner_options(7, argv, options, error)) << error;
  ASSERT_EQ(options.scenarios.size(), 1u);
  EXPECT_EQ(options.scenarios[0], "fig4_interpacket");
  EXPECT_EQ(options.seed, 9u);
  ASSERT_EQ(options.param_overrides.size(), 1u);
  EXPECT_EQ(options.param_overrides[0].first, "run_time_s");
  EXPECT_EQ(options.param_overrides[0].second, "2.5");
}

TEST(RunnerCli, ParsesEnumParamValues) {
  const char* argv[] = {"stopwatch_bench", "--scenario",
                        "ablation_aggregation", "--param",
                        "aggregation=median"};
  RunnerOptions options;
  std::string error;
  ASSERT_TRUE(parse_runner_options(5, argv, options, error)) << error;
  ASSERT_EQ(options.param_overrides.size(), 1u);
  EXPECT_EQ(options.param_overrides[0].first, "aggregation");
  EXPECT_EQ(options.param_overrides[0].second, "median");
  // An empty value is malformed, like a missing '='.
  const char* empty_value[] = {"stopwatch_bench", "--param", "aggregation="};
  EXPECT_FALSE(parse_runner_options(3, empty_value, options, error));
}

TEST(RunnerCli, ParsesJobs) {
  RunnerOptions options;
  std::string error;
  const char* argv[] = {"stopwatch_bench", "--smoke", "--jobs", "8"};
  ASSERT_TRUE(parse_runner_options(4, argv, options, error)) << error;
  EXPECT_EQ(options.jobs, 8u);
  const char* all_cores[] = {"stopwatch_bench", "--smoke", "--jobs", "0"};
  ASSERT_TRUE(parse_runner_options(4, all_cores, options, error)) << error;
  EXPECT_EQ(options.jobs, 0u);
}

TEST(RunnerCli, RejectsMalformedInput) {
  RunnerOptions options;
  std::string error;
  const char* bad_flag[] = {"stopwatch_bench", "--frobnicate"};
  EXPECT_FALSE(parse_runner_options(2, bad_flag, options, error));
  const char* bad_seed[] = {"stopwatch_bench", "--seed", "banana"};
  EXPECT_FALSE(parse_runner_options(3, bad_seed, options, error));
  const char* bad_param[] = {"stopwatch_bench", "--param", "novalue"};
  EXPECT_FALSE(parse_runner_options(3, bad_param, options, error));
  const char* missing[] = {"stopwatch_bench", "--scenario"};
  EXPECT_FALSE(parse_runner_options(2, missing, options, error));
  // --jobs must fail cleanly on garbage and on negatives — an atoi-style
  // fallback would wrap -1 into a huge thread count.
  const char* negative_jobs[] = {"stopwatch_bench", "--jobs", "-1"};
  EXPECT_FALSE(parse_runner_options(3, negative_jobs, options, error));
  EXPECT_NE(error.find("--jobs"), std::string::npos);
  const char* garbage_jobs[] = {"stopwatch_bench", "--jobs", "abc"};
  EXPECT_FALSE(parse_runner_options(3, garbage_jobs, options, error));
  const char* fractional_jobs[] = {"stopwatch_bench", "--jobs", "2.5"};
  EXPECT_FALSE(parse_runner_options(3, fractional_jobs, options, error));
  const char* jobs_missing[] = {"stopwatch_bench", "--jobs"};
  EXPECT_FALSE(parse_runner_options(2, jobs_missing, options, error));
}

}  // namespace
}  // namespace stopwatch::experiment
