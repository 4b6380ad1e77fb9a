// The bench-trajectory diff gate: the JSON reader must round-trip reports
// the writer produced, and the comparison must pass improvements, fail
// ns-class regressions beyond the threshold, and report missing/new
// metrics without failing — the exact contract CI's gate relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/contracts.hpp"
#include "common/json_emit.hpp"
#include "experiment/diff.hpp"
#include "experiment/json.hpp"
#include "experiment/result.hpp"
#include "experiment/runner.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace stopwatch::experiment {
namespace {

TEST(JsonReader, ParsesScalarsContainersAndEscapes) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(JsonValue::parse(
      R"({"a": 1.5, "b": [true, false, null], "s": "x\n\"y\" \u00e9"})", v,
      error))
      << error;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("a")->as_number(), 1.5);
  ASSERT_TRUE(v.find("b")->is_array());
  EXPECT_EQ(v.find("b")->items().size(), 3u);
  EXPECT_TRUE(v.find("b")->items()[0].as_bool());
  EXPECT_EQ(v.find("b")->items()[2].kind(), JsonValue::Kind::kNull);
  EXPECT_EQ(v.find("s")->as_string(), "x\n\"y\" \xc3\xa9");
  EXPECT_EQ(v.find("absent"), nullptr);
}

TEST(JsonReader, RejectsMalformedDocuments) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(JsonValue::parse("{", v, error));
  EXPECT_FALSE(JsonValue::parse("[1,]", v, error));
  EXPECT_FALSE(JsonValue::parse("{\"a\": 1} trailing", v, error));
  EXPECT_FALSE(JsonValue::parse("\"\\q\"", v, error));
  EXPECT_FALSE(JsonValue::parse("\"unterminated", v, error));
  EXPECT_FALSE(JsonValue::parse("tru", v, error));
  // Accessing the wrong kind is a contract violation, not silent garbage.
  ASSERT_TRUE(JsonValue::parse("3", v, error)) << error;
  EXPECT_THROW(static_cast<void>(v.as_string()), ContractViolation);
}

/// Builds a stopwatch-bench/1 report string through the real writer.
std::string make_report(
    const std::vector<std::pair<std::string,
                                std::vector<BenchMetric>>>& scenarios) {
  std::vector<Result> results;
  for (const auto& [name, metrics] : scenarios) {
    Result r(name);
    for (const BenchMetric& m : metrics) {
      r.add_metric(m.name, m.value, m.unit);
    }
    r.set_context(/*seed=*/1, /*smoke=*/true, {});
    results.push_back(std::move(r));
  }
  return report_to_json(results);
}

TEST(BenchReport, RoundTripsThroughWriterAndReader) {
  const std::string json = make_report(
      {{"alpha", {{"lat", 120.0, "ns/op"}, {"obs", 40.0, "observations"}}},
       {"beta", {{"loop", 9.5, "ns/event"}}}});
  BenchReport report;
  std::string error;
  ASSERT_TRUE(parse_bench_report(json, report, error)) << error;
  EXPECT_EQ(report.schema, "stopwatch-bench/1");
  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_EQ(report.results[0].scenario, "alpha");
  ASSERT_EQ(report.results[0].metrics.size(), 2u);
  EXPECT_EQ(report.results[0].metrics[0].name, "lat");
  EXPECT_EQ(report.results[0].metrics[0].value, 120.0);
  EXPECT_EQ(report.results[0].metrics[0].unit, "ns/op");
  EXPECT_EQ(report.results[1].seed, 1u);
}

TEST(BenchReport, RejectsWrongSchemaAndShape) {
  BenchReport report;
  std::string error;
  EXPECT_FALSE(parse_bench_report("not json", report, error));
  EXPECT_FALSE(parse_bench_report(
      R"({"schema": "other/9", "results": []})", report, error));
  EXPECT_NE(error.find("other/9"), std::string::npos);
  EXPECT_FALSE(parse_bench_report(R"({"results": []})", report, error));
}

TEST(BenchReport, ObservabilityBlockIsIgnoredByTheDiff) {
  // Reports may carry an `observability` block (counters + histograms).
  // The diff compares metric trajectories only: a report with the block
  // must diff clean against the same metrics without it — no phantom
  // missing/new entries, no gate trips from counter churn.
  Result r("scn");
  r.add_metric("lat", 100.0, "ns/op");
  r.set_context(/*seed=*/1, /*smoke=*/true, {});
  obs::Registry registry;
  registry.set_counter("sim.events_scheduled", 42);
  registry.histogram("net.frame_bytes")->record(1500);
  r.set_observability(registry.snapshot());
  std::vector<Result> results;
  results.push_back(std::move(r));
  const std::string with_block = report_to_json(results);
  ASSERT_NE(with_block.find("\"observability\""), std::string::npos);

  BenchReport parsed;
  std::string error;
  ASSERT_TRUE(parse_bench_report(with_block, parsed, error)) << error;
  BenchReport plain;
  ASSERT_TRUE(parse_bench_report(
      make_report({{"scn", {{"lat", 100.0, "ns/op"}}}}), plain, error))
      << error;

  const DiffReport diff = diff_reports(plain, parsed, {.threshold = 0.10});
  EXPECT_TRUE(diff.passed());
  EXPECT_TRUE(diff.missing_in_candidate.empty());
  EXPECT_TRUE(diff.new_in_candidate.empty());
  ASSERT_EQ(diff.deltas.size(), 1u);
  EXPECT_EQ(diff.deltas[0].metric, "lat");
  EXPECT_EQ(diff.deltas[0].delta_fraction, 0.0);
}

TEST(BenchReport, TimeSeriesAndGaugeBlocksAreIgnoredByTheDiff) {
  // Reports may now carry a `timeseries` block (sim-time rollups) and
  // memory gauges inside `observability`. Like the counters, neither is
  // a trajectory metric: a report with both blocks must diff clean
  // against the same metrics without them.
  Result r("scn");
  r.add_metric("lat", 100.0, "ns/op");
  r.set_context(/*seed=*/1, /*smoke=*/true, {});
  obs::TimeSeries series(1000, 8);
  series.record(500, 42);
  series.record(1500, 99);
  r.add_timeseries("egress.release_latency_ns", series.snapshot());
  obs::Registry registry;
  registry.set_gauge("mem.arena_bytes", 1 << 20);
  r.set_observability(registry.snapshot());
  std::vector<Result> results;
  results.push_back(std::move(r));
  const std::string with_blocks = report_to_json(results);
  ASSERT_NE(with_blocks.find("\"timeseries\""), std::string::npos);
  ASSERT_NE(with_blocks.find("\"gauges\""), std::string::npos);

  BenchReport parsed;
  std::string error;
  ASSERT_TRUE(parse_bench_report(with_blocks, parsed, error)) << error;
  BenchReport plain;
  ASSERT_TRUE(parse_bench_report(
      make_report({{"scn", {{"lat", 100.0, "ns/op"}}}}), plain, error))
      << error;
  const DiffReport diff = diff_reports(plain, parsed, {.threshold = 0.10});
  EXPECT_TRUE(diff.passed());
  EXPECT_TRUE(diff.missing_in_candidate.empty());
  EXPECT_TRUE(diff.new_in_candidate.empty());
  ASSERT_EQ(diff.deltas.size(), 1u);
  EXPECT_EQ(diff.deltas[0].metric, "lat");
}

BenchReport report_with(const std::vector<BenchMetric>& metrics) {
  BenchReport report;
  report.schema = "stopwatch-bench/1";
  report.results.push_back({"scn", 1, metrics});
  return report;
}

TEST(DiffGate, ImprovementAndWithinThresholdPass) {
  const BenchReport baseline = report_with({{"lat", 100.0, "ns/op"}});
  // 40% faster: well under any threshold.
  EXPECT_TRUE(diff_reports(baseline, report_with({{"lat", 60.0, "ns/op"}}),
                           {.threshold = 0.10})
                  .passed());
  // +9% is within the 10% gate; exactly +10% is "not beyond" it.
  EXPECT_TRUE(diff_reports(baseline, report_with({{"lat", 109.0, "ns/op"}}),
                           {.threshold = 0.10})
                  .passed());
  EXPECT_TRUE(diff_reports(baseline, report_with({{"lat", 110.0, "ns/op"}}),
                           {.threshold = 0.10})
                  .passed());
}

TEST(DiffGate, RegressionBeyondThresholdFails) {
  const BenchReport baseline = report_with({{"lat", 100.0, "ns/op"}});
  const DiffReport report = diff_reports(
      baseline, report_with({{"lat", 125.0, "ns/op"}}), {.threshold = 0.10});
  EXPECT_FALSE(report.passed());
  EXPECT_EQ(report.regressions, 1u);
  ASSERT_EQ(report.deltas.size(), 1u);
  EXPECT_TRUE(report.deltas[0].gated);
  EXPECT_TRUE(report.deltas[0].regression);
  EXPECT_NEAR(report.deltas[0].delta_fraction, 0.25, 1e-12);
  // A looser threshold accepts the same delta.
  EXPECT_TRUE(diff_reports(baseline, report_with({{"lat", 125.0, "ns/op"}}),
                           {.threshold = 0.30})
                  .passed());
}

TEST(DiffGate, UngatedMetricsNeverFailTheGate) {
  // "observations" contains "ns" — substring unit matching would gate it.
  const BenchReport baseline = report_with({{"obs", 10.0, "observations"},
                                            {"dur", 2.0, "s"}});
  const DiffReport report =
      diff_reports(baseline,
                   report_with({{"obs", 500.0, "observations"},
                                {"dur", 9.0, "s"}}),
                   {.threshold = 0.10});
  EXPECT_TRUE(report.passed());
  for (const MetricDelta& d : report.deltas) {
    EXPECT_FALSE(d.gated) << d.metric;
    EXPECT_FALSE(d.regression) << d.metric;
  }
}

TEST(DiffGate, WallClockRatioAndByteClassMetricsNeverGate) {
  // The self-profiling PR adds wall-clock-adjacent metrics: overhead
  // ratios (unit "x", e.g. profiling_disabled_overhead_ratio) and memory
  // sizes (unit "bytes"). Only the "ns"/"ns/..." classes gate — a 100x
  // swing in a ratio or an RSS-like byte count is visible in the table
  // but can never fail the trajectory gate.
  const BenchReport baseline =
      report_with({{"profiling_disabled_overhead_ratio", 1.0, "x"},
                   {"rss_like", 1000.0, "bytes"},
                   {"lat", 100.0, "ns/op"}});
  const DiffReport report = diff_reports(
      baseline,
      report_with({{"profiling_disabled_overhead_ratio", 100.0, "x"},
                   {"rss_like", 100000.0, "bytes"},
                   {"lat", 100.0, "ns/op"}}),
      {.threshold = 0.02});
  EXPECT_TRUE(report.passed());
  EXPECT_EQ(report.regressions, 0u);
  for (const MetricDelta& d : report.deltas) {
    if (d.metric != "lat") {
      EXPECT_FALSE(d.gated) << d.metric;
      EXPECT_FALSE(d.regression) << d.metric;
    }
  }
  // The swings still show in the rendering (behavior-change signal).
  EXPECT_NE(render_diff_table(report, {.threshold = 0.02})
                .find("profiling_disabled_overhead_ratio"),
            std::string::npos);
}

TEST(DiffGate, BitsMetricsAreReportedButNeverGated) {
  // The leakage scenarios emit "bits" metrics; a leakage change must be
  // *visible* in the delta table (behavior-change signal) without ever
  // tripping the wall-clock regression gate — only ns-class units gate.
  const BenchReport baseline = report_with(
      {{"capacity_bits_r3", 0.04, "bits"}, {"lat", 100.0, "ns/op"}});
  const DiffReport report =
      diff_reports(baseline,
                   report_with({{"capacity_bits_r3", 4.0, "bits"},
                                {"lat", 100.0, "ns/op"}}),
                   {.threshold = 0.10});
  EXPECT_TRUE(report.passed());
  EXPECT_EQ(report.regressions, 0u);
  const MetricDelta* bits_delta = nullptr;
  for (const MetricDelta& d : report.deltas) {
    if (d.metric == "capacity_bits_r3") bits_delta = &d;
  }
  ASSERT_NE(bits_delta, nullptr);
  EXPECT_FALSE(bits_delta->gated);
  EXPECT_FALSE(bits_delta->regression);
  // A 100x leakage increase shows up in both renderings...
  EXPECT_NE(render_diff_table(report, {.threshold = 0.10})
                .find("capacity_bits_r3"),
            std::string::npos);
  EXPECT_NE(render_diff_markdown(report, {.threshold = 0.10})
                .find("capacity_bits_r3"),
            std::string::npos);
  // ...while an unchanged bits metric stays out of the table noise.
  const DiffReport unchanged = diff_reports(baseline, baseline, {});
  EXPECT_EQ(render_diff_table(unchanged, {}).find("capacity_bits_r3"),
            std::string::npos);
}

TEST(DiffGate, NullMetricsCompareSanely) {
  const double nan = std::nan("");
  // null on both sides is "unchanged", not an eternal regression.
  EXPECT_TRUE(diff_reports(report_with({{"lat", nan, "ns/op"}}),
                           report_with({{"lat", nan, "ns/op"}}),
                           {.threshold = 0.10})
                  .passed());
  // null -> measurable recovers the trajectory; measurable -> null loses it.
  EXPECT_TRUE(diff_reports(report_with({{"lat", nan, "ns/op"}}),
                           report_with({{"lat", 50.0, "ns/op"}}),
                           {.threshold = 0.10})
                  .passed());
  EXPECT_FALSE(diff_reports(report_with({{"lat", 50.0, "ns/op"}}),
                            report_with({{"lat", nan, "ns/op"}}),
                            {.threshold = 0.10})
                   .passed());
}

TEST(DiffGate, UnitChangeIsReportedAsRenameNotCompared) {
  // 5 ms -> 5e6 ns is the same latency; comparing raw values would report
  // a +1e8% regression. A unit change must read as missing + new instead.
  const DiffReport report =
      diff_reports(report_with({{"lat", 5.0, "ms"}}),
                   report_with({{"lat", 5e6, "ns"}}), {.threshold = 0.10});
  EXPECT_TRUE(report.passed());
  EXPECT_TRUE(report.deltas.empty());
  ASSERT_EQ(report.missing_in_candidate.size(), 1u);
  EXPECT_EQ(report.missing_in_candidate[0], "scn.lat [ms]");
  ASSERT_EQ(report.new_in_candidate.size(), 1u);
  EXPECT_EQ(report.new_in_candidate[0], "scn.lat [ns]");
}

TEST(DiffGate, MissingAndNewMetricsReportedButNonFatal) {
  BenchReport baseline = report_with({{"lat", 100.0, "ns/op"},
                                      {"gone", 5.0, "ns/op"}});
  baseline.results.push_back({"dropped_scenario", 1, {{"m", 1.0, "ns/op"}}});
  BenchReport candidate = report_with({{"lat", 100.0, "ns/op"},
                                       {"fresh", 3.0, "ns/op"}});
  candidate.results.push_back({"added_scenario", 1, {{"m", 1.0, "ns/op"}}});

  const DiffReport report =
      diff_reports(baseline, candidate, {.threshold = 0.10});
  EXPECT_TRUE(report.passed());
  ASSERT_EQ(report.missing_in_candidate.size(), 2u);
  EXPECT_EQ(report.missing_in_candidate[0], "scn.gone");
  EXPECT_EQ(report.missing_in_candidate[1], "dropped_scenario.m");
  ASSERT_EQ(report.new_in_candidate.size(), 2u);
  EXPECT_EQ(report.new_in_candidate[0], "scn.fresh");
  EXPECT_EQ(report.new_in_candidate[1], "added_scenario.m");
}

TEST(DiffRendering, TableAndMarkdownNameTheRegression) {
  const BenchReport baseline = report_with({{"lat", 100.0, "ns/op"},
                                            {"steady", 5.0, "ns/op"}});
  const DiffOptions options{.threshold = 0.10};
  const DiffReport report = diff_reports(
      baseline,
      report_with({{"lat", 150.0, "ns/op"}, {"steady", 5.0, "ns/op"}}),
      options);
  const std::string table = render_diff_table(report, options);
  EXPECT_NE(table.find("scn.lat"), std::string::npos);
  EXPECT_NE(table.find("REGRESSION"), std::string::npos);
  EXPECT_NE(table.find("FAIL: 1 gated regression(s)"), std::string::npos);
  const std::string markdown = render_diff_markdown(report, options);
  EXPECT_NE(markdown.find("| `scn.lat` |"), std::string::npos);
  EXPECT_NE(markdown.find("**regression**"), std::string::npos);
}

TEST(DiffCli, ExitCodesMatchVerdicts) {
  const auto write_file = [](const std::string& path,
                             const std::string& contents) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.is_open()) << path;
    out << contents;
  };
  const std::string dir = ::testing::TempDir();
  const std::string base_path = dir + "/sw_diff_base.json";
  const std::string good_path = dir + "/sw_diff_good.json";
  const std::string bad_path = dir + "/sw_diff_bad.json";
  write_file(base_path, make_report({{"scn", {{"lat", 100.0, "ns/op"}}}}));
  write_file(good_path, make_report({{"scn", {{"lat", 95.0, "ns/op"}}}}));
  write_file(bad_path, make_report({{"scn", {{"lat", 200.0, "ns/op"}}}}));

  const auto run = [](std::vector<const char*> argv) {
    argv.insert(argv.begin(), "stopwatch_bench_diff");
    return run_diff_cli(static_cast<int>(argv.size()), argv.data());
  };
  EXPECT_EQ(run({base_path.c_str(), good_path.c_str(), "--quiet"}), 0);
  EXPECT_EQ(run({base_path.c_str(), bad_path.c_str(), "--quiet"}), 1);
  EXPECT_EQ(run({base_path.c_str(), bad_path.c_str(), "--threshold", "1.5",
                 "--quiet"}),
            0);
  EXPECT_EQ(run({base_path.c_str()}), 2);                      // missing arg
  EXPECT_EQ(run({base_path.c_str(), "/nonexistent.json"}), 2);  // bad file
  EXPECT_EQ(run({base_path.c_str(), bad_path.c_str(), "--threshold", "x"}),
            2);

  std::remove(base_path.c_str());
  std::remove(good_path.c_str());
  std::remove(bad_path.c_str());
}

// Parser robustness: seeded random inputs against every parser a report
// or a command line reaches. Each case is deterministic, so a failure
// replays exactly; the sanitizer lane runs the same loops under ASan and
// UBSan, where a stray read or an out-of-range cast aborts the test.

/// A real report exercising every block the reader may meet: strings with
/// escapes and non-ASCII bytes, a null metric, `timeseries` and
/// `observability` bucket lists.
std::string rich_report() {
  Result r("scn \"quoted\"\t\xf0\x9f\x98\x80");
  r.add_metric("lat", 120.5, "ns/op");
  r.add_metric("nan\\metric", std::nan(""), "bits");
  r.add_series("trace", "us", {1.0, -2.5e-7, 3e12});
  r.set_context(/*seed=*/7, /*smoke=*/true, {{"policy", "\"stopwatch\""}});
  obs::TimeSeries series(1000, 8);
  for (std::int64_t t = 0; t < 20'000; t += 700) {
    series.record(t, static_cast<std::uint64_t>(t * 3));
  }
  r.add_timeseries("egress.release_latency_ns", series.snapshot());
  obs::Registry registry;
  registry.set_counter("sim.events_scheduled", 42);
  registry.set_gauge("mem.arena_bytes", 1 << 20);
  registry.histogram("net.frame_bytes")->record(1500);
  r.set_observability(registry.snapshot());
  std::vector<Result> results;
  results.push_back(std::move(r));
  return report_to_json(results);
}

/// Deletes, inserts, replaces or truncates bytes, 1-4 edits per document.
/// Inserted bytes favor JSON syntax so edits reach deep parser states.
std::string mutate(std::string doc, std::mt19937_64& rng) {
  static constexpr std::string_view kSyntax = "{}[]\",:\\u0123456789eE+-.tfn";
  const auto pick_byte = [&rng]() {
    if (rng() % 2 == 0) return kSyntax[rng() % kSyntax.size()];
    return static_cast<char>(rng() % 256);
  };
  const int edits = 1 + static_cast<int>(rng() % 4);
  for (int e = 0; e < edits && !doc.empty(); ++e) {
    const std::size_t at = rng() % doc.size();
    switch (rng() % 4) {
      case 0:
        doc.erase(at, 1 + rng() % 8);
        break;
      case 1:
        doc.insert(at, 1, pick_byte());
        break;
      case 2:
        doc[at] = pick_byte();
        break;
      default:
        doc.resize(at);
    }
  }
  return doc;
}

TEST(ParserRobustness, MutatedReportsNeverCrashTheReaders) {
  const std::string valid = rich_report();
  BenchReport report;
  std::string error;
  ASSERT_TRUE(parse_bench_report(valid, report, error)) << error;

  std::mt19937_64 rng(20131);
  int rejected = 0;
  int numbers = 0;
  for (int i = 0; i < 20'000; ++i) {
    const std::string doc = mutate(valid, rng);
    JsonValue v;
    std::string json_error;
    const bool parsed = JsonValue::parse(doc, v, json_error);
    EXPECT_TRUE(parsed || !json_error.empty());
    std::string report_error;
    if (parse_bench_report(doc, report, report_error)) {
      EXPECT_TRUE(parsed);
    } else {
      EXPECT_FALSE(report_error.empty());
      ++rejected;
    }
    // Every slice of a mutated document is also a candidate number.
    const std::size_t at = doc.empty() ? 0 : rng() % doc.size();
    const auto slice = std::string_view(doc).substr(at, rng() % 24);
    double out = 0.0;
    if (parse_double_strict(slice, out)) ++numbers;
  }
  // The mutations must reach both the error paths and the happy ones.
  EXPECT_GT(rejected, 10'000);
  EXPECT_LT(rejected, 20'000);
  EXPECT_GT(numbers, 0);
}

TEST(ParserRobustness, DeepNestingIsRejectedWithoutRecursingAway) {
  JsonValue v;
  std::string error;
  for (const std::size_t depth : {64u, 65u, 66u, 1000u, 100'000u}) {
    const std::string open(depth, '[');
    const std::string closed = open + std::string(depth, ']');
    EXPECT_EQ(JsonValue::parse(closed, v, error), depth <= 65) << depth;
    EXPECT_FALSE(JsonValue::parse(open, v, error)) << depth;
    const std::string doc =
        "{\"schema\": \"stopwatch-bench/1\", \"results\": " + closed + "}";
    BenchReport report;
    EXPECT_FALSE(parse_bench_report(doc, report, error)) << depth;
  }
}

TEST(ParserRobustness, OutOfRangeSeedIsIgnoredNotCast) {
  // A seed outside [0, 2^64) has no uint64 value; casting it would be
  // undefined, so the reader keeps the default.
  const std::string head =
      R"({"schema": "stopwatch-bench/1", "results": [{"scenario": "s", )";
  for (const char* seed : {"-1", "1e300", "18446744073709551616"}) {
    const std::string doc = head + "\"seed\": " + seed + ", \"metrics\": []}]}";
    BenchReport report;
    std::string error;
    ASSERT_TRUE(parse_bench_report(doc, report, error)) << error;
    ASSERT_EQ(report.results.size(), 1u);
    EXPECT_EQ(report.results[0].seed, 0u) << seed;
  }
}

TEST(ParserRobustness, RandomArgvNeverCrashesTheRunnerParser) {
  // Every flag, good and bad values, and random junk (empty included).
  std::vector<std::string> tokens;
  std::istringstream words(
      "--list --smoke --all --quiet --seed --jobs --json --trace "
      "--trace-parallel --profile --metrics --param --scenario a=b =x k= -1 "
      "18446744073709551616 7 fig6_nfs --");
  for (std::string word; words >> word;) tokens.push_back(word);
  std::mt19937_64 rng(1804);
  int accepted = 0;
  for (int i = 0; i < 20'000; ++i) {
    std::vector<std::string> args = {"stopwatch_bench"};
    const int n = static_cast<int>(rng() % 7);
    for (int a = 0; a < n; ++a) {
      if (rng() % 5 == 0) {
        std::string junk(rng() % 6, '\0');
        for (char& c : junk) c = static_cast<char>(1 + rng() % 255);
        args.push_back(std::move(junk));
      } else {
        args.push_back(tokens[rng() % tokens.size()]);
      }
    }
    std::vector<const char*> argv;
    for (const std::string& arg : args) argv.push_back(arg.c_str());
    const int argc = static_cast<int>(argv.size());
    RunnerOptions options;
    std::string error;
    if (parse_runner_options(argc, argv.data(), options, error)) {
      ++accepted;
    } else {
      EXPECT_FALSE(error.empty());
    }
  }
  EXPECT_GT(accepted, 100);  // both outcomes are reached
  EXPECT_LT(accepted, 20'000);
}

TEST(ParserRobustness, JsonStringRoundTripsArbitraryBytes) {
  std::mt19937_64 rng(1906);
  for (int i = 0; i < 20'000; ++i) {
    std::string bytes(rng() % 40, '\0');
    for (char& c : bytes) c = static_cast<char>(rng() % 256);
    JsonValue v;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(json_string(bytes), v, error)) << error;
    ASSERT_EQ(v.as_string(), bytes);
  }
  // A surrogate pair decodes to one four-byte UTF-8 code point.
  JsonValue v;
  std::string error;
  ASSERT_TRUE(JsonValue::parse("\"\\ud83d\\ude00\"", v, error)) << error;
  EXPECT_EQ(v.as_string(), "\xf0\x9f\x98\x80");  // U+1F600
  EXPECT_FALSE(JsonValue::parse("\"\\ud83d\"", v, error));
  EXPECT_FALSE(JsonValue::parse("\"\\ud83d\\u0041\"", v, error));
  EXPECT_FALSE(JsonValue::parse("\"\\ude00\"", v, error));
}

}  // namespace
}  // namespace stopwatch::experiment
