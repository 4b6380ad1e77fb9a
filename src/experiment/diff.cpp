#include "experiment/diff.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "experiment/json.hpp"

namespace stopwatch::experiment {

namespace {

constexpr std::string_view kDiffUsage =
    "usage: stopwatch_bench_diff <baseline.json> <candidate.json> [options]\n"
    "  --threshold <frac>   max fractional ns-metric regression tolerated\n"
    "                       before failing (default 0.10 = +10%)\n"
    "  --markdown <path>    also write a GitHub-flavored markdown summary\n"
    "                       (suitable for $GITHUB_STEP_SUMMARY)\n"
    "  --quiet              print only the verdict line\n";

/// The gate applies to wall-clock trajectory metrics only: unit "ns" or any
/// "ns/..." rate. Substring matching would be wrong ("observations"
/// contains "ns").
bool is_gated_unit(const std::string& unit) {
  return unit == "ns" || unit.rfind("ns/", 0) == 0;
}

std::string format_value(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string format_delta(double fraction) {
  if (!std::isfinite(fraction)) return fraction < 0.0 ? "-inf" : "+inf";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%+.2f%%", fraction * 100.0);
  return buf;
}

/// Rows worth showing: every gated metric (the trajectory), plus any
/// ungated metric whose value moved (behavior change signal).
bool is_visible(const MetricDelta& d) {
  return d.gated || d.baseline != d.candidate;
}

const BenchMetric* find_metric(const BenchResult& result,
                               const std::string& name) {
  const auto it =
      std::find_if(result.metrics.begin(), result.metrics.end(),
                   [&](const BenchMetric& m) { return m.name == name; });
  return it == result.metrics.end() ? nullptr : &*it;
}

const BenchResult* find_result(const BenchReport& report,
                               const std::string& scenario) {
  const auto it = std::find_if(
      report.results.begin(), report.results.end(),
      [&](const BenchResult& r) { return r.scenario == scenario; });
  return it == report.results.end() ? nullptr : &*it;
}

}  // namespace

bool parse_bench_report(const std::string& json, BenchReport& report,
                        std::string& error) {
  report = BenchReport();
  JsonValue root;
  if (!JsonValue::parse(json, root, error)) return false;
  if (!root.is_object()) {
    error = "report root is not an object";
    return false;
  }
  const JsonValue* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    error = "report has no \"schema\" string";
    return false;
  }
  report.schema = schema->as_string();
  if (report.schema != "stopwatch-bench/1") {
    error = "unsupported schema '" + report.schema +
            "' (expected stopwatch-bench/1)";
    return false;
  }
  const JsonValue* results = root.find("results");
  if (results == nullptr || !results->is_array()) {
    error = "report has no \"results\" array";
    return false;
  }
  for (const JsonValue& entry : results->items()) {
    const JsonValue* scenario = entry.find("scenario");
    const JsonValue* metrics = entry.find("metrics");
    if (scenario == nullptr || !scenario->is_string() || metrics == nullptr ||
        !metrics->is_array()) {
      error = "result entry missing \"scenario\" string or \"metrics\" array";
      return false;
    }
    BenchResult result;
    result.scenario = scenario->as_string();
    // Casting a double outside [0, 2^64) to uint64 is undefined, so a
    // corrupted seed is ignored rather than converted.
    if (const JsonValue* seed = entry.find("seed");
        seed != nullptr && seed->is_number() && seed->as_number() >= 0.0 &&
        seed->as_number() < 0x1p64) {
      result.seed = static_cast<std::uint64_t>(seed->as_number());
    }
    for (const JsonValue& metric : metrics->items()) {
      const JsonValue* name = metric.find("name");
      const JsonValue* value = metric.find("value");
      const JsonValue* unit = metric.find("unit");
      if (name == nullptr || !name->is_string() || value == nullptr ||
          unit == nullptr || !unit->is_string()) {
        error = "metric entry of '" + result.scenario +
                "' missing name/value/unit";
        return false;
      }
      // A non-finite metric serializes as null; keep it as NaN so deltas
      // against it are reported (as non-finite) rather than dropped.
      const double v = value->is_number()
                           ? value->as_number()
                           : std::numeric_limits<double>::quiet_NaN();
      result.metrics.push_back({name->as_string(), v, unit->as_string()});
    }
    report.results.push_back(std::move(result));
  }
  return true;
}

DiffReport diff_reports(const BenchReport& baseline,
                        const BenchReport& candidate,
                        const DiffOptions& options) {
  DiffReport out;
  for (const BenchResult& base_result : baseline.results) {
    const BenchResult* cand_result =
        find_result(candidate, base_result.scenario);
    if (cand_result == nullptr) {
      for (const BenchMetric& m : base_result.metrics) {
        out.missing_in_candidate.push_back(base_result.scenario + "." + m.name);
      }
      continue;
    }
    for (const BenchMetric& base_metric : base_result.metrics) {
      const BenchMetric* cand_metric =
          find_metric(*cand_result, base_metric.name);
      if (cand_metric == nullptr) {
        out.missing_in_candidate.push_back(base_result.scenario + "." +
                                           base_metric.name);
        continue;
      }
      if (cand_metric->unit != base_metric.unit) {
        // A unit change makes the raw values incomparable; treat it like a
        // rename (missing + new) so it is visible but never requires a
        // baseline reset.
        out.missing_in_candidate.push_back(base_result.scenario + "." +
                                           base_metric.name + " [" +
                                           base_metric.unit + "]");
        out.new_in_candidate.push_back(base_result.scenario + "." +
                                       cand_metric->name + " [" +
                                       cand_metric->unit + "]");
        continue;
      }
      MetricDelta delta;
      delta.scenario = base_result.scenario;
      delta.metric = base_metric.name;
      delta.unit = cand_metric->unit;
      delta.baseline = base_metric.value;
      delta.candidate = cand_metric->value;
      if (base_metric.value == cand_metric->value ||
          (std::isnan(base_metric.value) && std::isnan(cand_metric->value))) {
        // Two null (non-finite) readings are "unchanged", not a regression:
        // NaN != NaN would otherwise gate them forever.
        delta.delta_fraction = 0.0;
      } else if (std::isnan(base_metric.value)) {
        // null -> measurable is a recovery; it must pass the gate.
        delta.delta_fraction = -std::numeric_limits<double>::infinity();
      } else if (std::isnan(cand_metric->value)) {
        // measurable -> null loses the trajectory; fail the gate.
        delta.delta_fraction = std::numeric_limits<double>::infinity();
      } else if (base_metric.value != 0.0) {
        delta.delta_fraction =
            (cand_metric->value - base_metric.value) / base_metric.value;
      } else {
        delta.delta_fraction = std::numeric_limits<double>::infinity();
      }
      delta.gated = is_gated_unit(cand_metric->unit);
      delta.regression =
          delta.gated && !(delta.delta_fraction <= options.threshold);
      if (delta.regression) ++out.regressions;
      out.deltas.push_back(std::move(delta));
    }
    for (const BenchMetric& cand_metric : cand_result->metrics) {
      if (find_metric(base_result, cand_metric.name) == nullptr) {
        out.new_in_candidate.push_back(base_result.scenario + "." +
                                       cand_metric.name);
      }
    }
  }
  for (const BenchResult& cand_result : candidate.results) {
    if (find_result(baseline, cand_result.scenario) == nullptr) {
      for (const BenchMetric& m : cand_result.metrics) {
        out.new_in_candidate.push_back(cand_result.scenario + "." + m.name);
      }
    }
  }
  return out;
}

std::string render_diff_table(const DiffReport& report,
                              const DiffOptions& options) {
  std::ostringstream out;
  out << "metric deltas (gate: ns-class metrics, threshold +"
      << format_value(options.threshold * 100.0) << "%)\n";
  std::size_t shown = 0;
  for (const MetricDelta& d : report.deltas) {
    if (!is_visible(d)) continue;
    ++shown;
    char line[256];
    std::snprintf(line, sizeof(line), "  %-52s %12s -> %12s  %9s %s%s\n",
                  (d.scenario + "." + d.metric).c_str(),
                  format_value(d.baseline).c_str(),
                  format_value(d.candidate).c_str(),
                  format_delta(d.delta_fraction).c_str(),
                  d.gated ? "[gated]" : "", d.regression ? " REGRESSION" : "");
    out << line;
  }
  if (shown == 0) out << "  (no gated or changed metrics)\n";
  for (const std::string& name : report.missing_in_candidate) {
    out << "  missing in candidate: " << name << "\n";
  }
  for (const std::string& name : report.new_in_candidate) {
    out << "  new in candidate:     " << name << "\n";
  }
  out << (report.passed() ? "PASS" : "FAIL") << ": " << report.regressions
      << " gated regression(s)\n";
  return out.str();
}

std::string render_diff_markdown(const DiffReport& report,
                                 const DiffOptions& options) {
  std::ostringstream out;
  out << "### Bench diff — "
      << (report.passed() ? ":white_check_mark: pass" : ":x: fail") << " ("
      << report.regressions << " gated regression(s), threshold +"
      << format_value(options.threshold * 100.0) << "%)\n\n";
  out << "| metric | baseline | candidate | delta | gate |\n";
  out << "|---|---:|---:|---:|---|\n";
  std::size_t shown = 0;
  for (const MetricDelta& d : report.deltas) {
    if (!is_visible(d)) continue;
    ++shown;
    out << "| `" << d.scenario << "." << d.metric << "` | "
        << format_value(d.baseline) << " | " << format_value(d.candidate)
        << " | " << format_delta(d.delta_fraction) << " | "
        << (d.regression ? "**regression**" : (d.gated ? "gated" : "—"))
        << " |\n";
  }
  if (shown == 0) out << "| _no gated or changed metrics_ | | | | |\n";
  if (!report.missing_in_candidate.empty() ||
      !report.new_in_candidate.empty()) {
    out << "\n";
    for (const std::string& name : report.missing_in_candidate) {
      out << "- missing in candidate: `" << name << "`\n";
    }
    for (const std::string& name : report.new_in_candidate) {
      out << "- new in candidate: `" << name << "`\n";
    }
  }
  return out.str();
}

namespace {

bool read_file(const std::string& path, std::string& out, std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot read '" + path + "'";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

}  // namespace

int run_diff_cli(int argc, const char* const* argv) {
  std::vector<std::string> paths;
  DiffOptions options;
  std::string markdown_path;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next_value = [&](std::string_view flag,
                                std::string_view& out) -> bool {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n%s",
                     std::string(flag).c_str(),
                     std::string(kDiffUsage).c_str());
        return false;
      }
      out = argv[++i];
      return true;
    };
    if (arg == "--threshold") {
      std::string_view v;
      if (!next_value(arg, v)) return 2;
      const auto [ptr, ec] =
          std::from_chars(v.data(), v.data() + v.size(), options.threshold);
      // An infinite threshold would pass every regression, so only a
      // finite fraction sets the gate.
      if (ec != std::errc{} || ptr != v.data() + v.size() ||
          !(std::isfinite(options.threshold) && options.threshold >= 0.0)) {
        std::fprintf(stderr,
                     "error: --threshold expects a finite non-negative "
                     "fraction, got '%s'\n",
                     std::string(v).c_str());
        return 2;
      }
    } else if (arg == "--markdown") {
      std::string_view v;
      if (!next_value(arg, v)) return 2;
      markdown_path = std::string(v);
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "error: unknown argument '%s'\n%s",
                   std::string(arg).c_str(), std::string(kDiffUsage).c_str());
      return 2;
    } else {
      paths.emplace_back(arg);
    }
  }
  if (paths.size() != 2) {
    std::fprintf(stderr, "%s", std::string(kDiffUsage).c_str());
    return 2;
  }

  BenchReport baseline;
  BenchReport candidate;
  std::string text;
  std::string error;
  if (!read_file(paths[0], text, error) ||
      !parse_bench_report(text, baseline, error)) {
    std::fprintf(stderr, "error: baseline %s: %s\n", paths[0].c_str(),
                 error.c_str());
    return 2;
  }
  if (!read_file(paths[1], text, error) ||
      !parse_bench_report(text, candidate, error)) {
    std::fprintf(stderr, "error: candidate %s: %s\n", paths[1].c_str(),
                 error.c_str());
    return 2;
  }

  const DiffReport report = diff_reports(baseline, candidate, options);
  if (!quiet) {
    std::fputs(render_diff_table(report, options).c_str(), stdout);
  } else {
    std::printf("%s: %zu gated regression(s)\n",
                report.passed() ? "PASS" : "FAIL", report.regressions);
  }
  if (!markdown_path.empty()) {
    std::ofstream md(markdown_path, std::ios::binary);
    if (!md) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   markdown_path.c_str());
      return 2;
    }
    md << render_diff_markdown(report, options);
  }
  return report.passed() ? 0 : 1;
}

}  // namespace stopwatch::experiment
