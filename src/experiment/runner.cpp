#include "experiment/runner.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <mutex>
#include <string_view>
#include <thread>

#include "experiment/points.hpp"
#include "experiment/registry.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace stopwatch::experiment {

namespace {

constexpr std::string_view kUsage =
    "usage: stopwatch_bench|stopwatch_microbench [options]\n"
    "  --list               list registered scenarios and their parameters\n"
    "  --scenario <name>    run one scenario (repeatable)\n"
    "  --all                run every registered scenario\n"
    "  --smoke              short deterministic runs (implies --all unless\n"
    "                       --scenario is given)\n"
    "  --seed <n>           base RNG seed (default 1)\n"
    "  --jobs <n>           threads for scenarios and the points of their\n"
    "                       sweeps (default 0 = one per hardware thread;\n"
    "                       1 = sequential); results stay byte-identical,\n"
    "                       in registry order; peak memory grows with the\n"
    "                       points in flight (at most 3 per sweep)\n"
    "  --param <k=v>        override a scenario parameter (applies to each\n"
    "                       selected scenario that declares <k>)\n"
    "  --json <path>        write results as JSON to <path>\n"
    "  --trace <path>       record a sim-time trace as Chrome/Perfetto\n"
    "                       trace-event JSON; sweep points run in turn;\n"
    "                       multi-scenario selections run at --jobs 1\n"
    "                       and write one file per scenario\n"
    "                       (<stem>.<scenario>.<ext>)\n"
    "  --trace-parallel     include shard-machinery tracks (barrier windows,\n"
    "                       per-core kernel counters) in the trace; these\n"
    "                       vary with sim_shards, unlike the default export\n"
    "  --profile <path>     write a wall-clock self-profile (per-phase\n"
    "                       attribution, RSS) as JSON, plus flamegraph\n"
    "                       collapsed stacks at <path>.stacks; same\n"
    "                       multi-scenario rule as --trace\n"
    "  --metrics            print each result's observability counters and\n"
    "                       histograms (scenarios that embed them)\n"
    "  --quiet              suppress per-metric human-readable output\n";

bool parse_u64(std::string_view s, std::uint64_t& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

void print_catalog() {
  const auto scenarios = ScenarioRegistry::instance().list();
  std::printf("%zu registered scenarios:\n\n", scenarios.size());
  for (const Scenario* s : scenarios) {
    std::printf("%-24s %s\n", s->name.c_str(), s->description.c_str());
    for (const ParamSpec& p : s->params) {
      if (p.kind == ParamSpec::Kind::kEnum) {
        std::printf("    --param %s=<%s>  %s (default %s)\n", p.name.c_str(),
                    p.choices_joined().c_str(), p.description.c_str(),
                    p.default_choice.c_str());
      } else {
        std::printf("    --param %s=<v>  %s (default %g, smoke %g)\n",
                    p.name.c_str(), p.description.c_str(), p.default_value,
                    p.smoke_value);
      }
    }
  }
}

void print_result(const Result& result) {
  std::printf("--- %s (seed %llu) ---\n", result.scenario().c_str(),
              static_cast<unsigned long long>(result.seed()));
  for (const Metric& m : result.metrics()) {
    std::printf("  %-36s %14g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Series& s : result.series()) {
    std::printf("  %-36s %11zu pts %s\n", s.name.c_str(), s.values.size(),
                s.unit.c_str());
  }
  if (!result.note().empty()) {
    std::printf("  note: %s\n", result.note().c_str());
  }
}

void print_observability(const Result& result) {
  const obs::Snapshot& snap = result.observability();
  if (snap.empty()) {
    std::printf("  (no observability block: scenario does not embed one)\n");
    return;
  }
  std::printf("  observability counters:\n");
  for (const auto& [name, value] : snap.counters) {
    std::printf("    %-36s %20llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  for (const auto& [name, h] : snap.histograms) {
    std::printf("    %-36s count=%llu sum=%llu max=%llu\n", name.c_str(),
                static_cast<unsigned long long>(h.count),
                static_cast<unsigned long long>(h.sum),
                static_cast<unsigned long long>(h.max));
  }
}

/// The per-task body: runs one scenario into its own outcome slot,
/// translating every escape (contract violations, scenario bugs, non-std
/// exceptions) into a captured per-scenario error so siblings keep running.
void run_one_scenario(const Scenario& scenario, const ParamOverrides& overrides,
                      std::uint64_t seed, bool smoke, ThreadBudget& budget,
                      ScenarioOutcome& out) {
  out.name = scenario.name;
  ParamOverrides scenario_overrides;
  for (const auto& [param, value] : overrides) {
    const bool declared =
        std::any_of(scenario.params.begin(), scenario.params.end(),
                    [&](const ParamSpec& p) { return p.name == param; });
    if (declared) scenario_overrides[param] = value;
  }
  const auto t0 = std::chrono::steady_clock::now();
  try {
    out.result = ScenarioRegistry::instance().run(
        scenario.name, seed, smoke, std::move(scenario_overrides), &budget);
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  } catch (...) {
    out.error = "unknown non-standard exception";
  }
  out.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

// Maps a --jobs value to a worker count: 0 means one per hardware thread
// (1 when the runtime cannot tell), anything else is taken literally.
std::size_t recommended_jobs(std::uint64_t requested) {
  if (requested != 0) return static_cast<std::size_t>(requested);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

std::uint64_t effective_jobs(const RunnerOptions& options,
                             std::size_t scenario_count) {
  const bool side_outputs =
      !options.trace_path.empty() || !options.profile_path.empty();
  return options.jobs.value_or(side_outputs && scenario_count > 1 ? 1 : 0);
}

std::string per_scenario_path(const std::string& path,
                              const std::string& scenario) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  const bool dot_in_name =
      dot != std::string::npos &&
      (slash == std::string::npos || dot > slash);
  if (!dot_in_name) return path + "." + scenario;
  return path.substr(0, dot) + "." + scenario + path.substr(dot);
}

std::vector<ScenarioOutcome> run_scenarios(
    const std::vector<const Scenario*>& selected,
    const ParamOverrides& overrides, std::uint64_t seed, bool smoke,
    std::uint64_t jobs, const OutcomeCallback& on_complete) {
  std::vector<ScenarioOutcome> outcomes(selected.size());
  const std::size_t threads = recommended_jobs(jobs);
  ThreadBudget budget(threads);
  // Publish outcomes progressively but strictly in selection order: the
  // thread that finishes the next unpublished scenario publishes it and
  // every finished one after it, under the lock. The callback (and
  // therefore stdout and the JSON report) never observes completion order,
  // which is what keeps --jobs N byte-identical to --jobs 1.
  std::mutex publish_mutex;
  std::vector<char> done(selected.size(), 0);
  std::size_t published = 0;
  for_each_point(&budget, selected.size(), threads, [&](std::size_t i) {
    run_one_scenario(*selected[i], overrides, seed, smoke, budget,
                     outcomes[i]);
    const std::lock_guard<std::mutex> lock(publish_mutex);
    done[i] = 1;
    for (; published < selected.size() && done[published] != 0;
         ++published) {
      if (on_complete) on_complete(outcomes[published], published);
    }
  });
  return outcomes;
}

bool parse_runner_options(int argc, const char* const* argv,
                          RunnerOptions& options, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next_value = [&](std::string_view flag,
                                std::string_view& out) -> bool {
      if (i + 1 >= argc) {
        error = std::string(flag) + " requires a value";
        return false;
      }
      out = argv[++i];
      return true;
    };

    if (arg == "--list") {
      options.list = true;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--all") {
      options.run_all = true;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (arg == "--scenario") {
      std::string_view v;
      if (!next_value(arg, v)) return false;
      options.scenarios.emplace_back(v);
    } else if (arg == "--seed") {
      std::string_view v;
      if (!next_value(arg, v)) return false;
      if (!parse_u64(v, options.seed)) {
        error = "--seed expects an unsigned integer, got '" + std::string(v) +
                "'";
        return false;
      }
    } else if (arg == "--jobs") {
      std::string_view v;
      if (!next_value(arg, v)) return false;
      // parse_u64 rejects signs, so `--jobs -1` fails here rather than
      // wrapping to a huge thread count via an atoi-style fallback.
      std::uint64_t jobs = 0;
      if (!parse_u64(v, jobs)) {
        error = "--jobs expects a non-negative integer (0 = one per "
                "hardware thread), got '" +
                std::string(v) + "'";
        return false;
      }
      options.jobs = jobs;
    } else if (arg == "--json") {
      std::string_view v;
      if (!next_value(arg, v)) return false;
      options.json_path = std::string(v);
    } else if (arg == "--trace") {
      std::string_view v;
      if (!next_value(arg, v)) return false;
      options.trace_path = std::string(v);
    } else if (arg == "--trace-parallel") {
      options.trace_parallel = true;
    } else if (arg == "--profile") {
      std::string_view v;
      if (!next_value(arg, v)) return false;
      options.profile_path = std::string(v);
    } else if (arg == "--metrics") {
      options.metrics = true;
    } else if (arg == "--param") {
      std::string_view v;
      if (!next_value(arg, v)) return false;
      const std::size_t eq = v.find('=');
      // Values stay text here: whether "median" or "2.5" is valid depends
      // on the declaring scenario's schema, checked after selection.
      if (eq == std::string_view::npos || eq == 0 || eq + 1 == v.size()) {
        error = "--param expects <name>=<value>, got '" + std::string(v) + "'";
        return false;
      }
      options.param_overrides.emplace_back(std::string(v.substr(0, eq)),
                                           std::string(v.substr(eq + 1)));
    } else {
      error = "unknown argument '" + std::string(arg) + "'";
      return false;
    }
  }
  return true;
}

int run_cli(int argc, const char* const* argv) {
  RunnerOptions options;
  std::string error;
  if (!parse_runner_options(argc, argv, options, error)) {
    std::fprintf(stderr, "error: %s\n%s", error.c_str(),
                 std::string(kUsage).c_str());
    return 2;
  }

  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  if (options.list) {
    print_catalog();
    return 0;
  }

  std::vector<std::string> selection = options.scenarios;
  if (selection.empty() && (options.run_all || options.smoke)) {
    for (const Scenario* s : registry.list()) selection.push_back(s->name);
  }
  if (selection.empty()) {
    std::fprintf(stderr, "%s", std::string(kUsage).c_str());
    return 2;
  }

  std::vector<const Scenario*> selected;
  selected.reserve(selection.size());
  for (const std::string& name : selection) {
    const Scenario* scenario = registry.find(name);
    if (scenario == nullptr) {
      std::fprintf(stderr, "error: unknown scenario '%s'; --list shows %zu\n",
                   name.c_str(), registry.size());
      return 2;
    }
    selected.push_back(scenario);
  }

  // Last occurrence wins for repeated --param keys, matching the usual CLI
  // convention for appended overrides (the map range constructor would keep
  // an unspecified one).
  ParamOverrides overrides;
  for (const auto& [param, value] : options.param_overrides) {
    overrides[param] = value;
  }

  // An override must be declared by at least one selected scenario and be
  // valid for every selected scenario that declares it; the rest simply
  // don't receive it, so --param composes with --all/--smoke sweeps.
  for (const auto& [param, text] : overrides) {
    bool declared = false;
    for (const Scenario* scenario : selected) {
      const auto spec =
          std::find_if(scenario->params.begin(), scenario->params.end(),
                       [&](const ParamSpec& p) { return p.name == param; });
      if (spec == scenario->params.end()) continue;
      declared = true;
      const std::string reason = spec->reject_reason(text);
      if (!reason.empty()) {
        std::fprintf(stderr, "error: --param %s=%s %s for scenario '%s'\n",
                     param.c_str(), text.c_str(), reason.c_str(),
                     scenario->name.c_str());
        return 2;
      }
    }
    if (!declared) {
      std::fprintf(stderr,
                   "error: no selected scenario declares parameter '%s' "
                   "(--list shows schemas)\n",
                   param.c_str());
      return 2;
    }
  }

  // Open the report file before running anything: discovering an unwritable
  // path after a full-length scenario sweep would waste the whole run.
  std::ofstream json_out;
  if (!options.json_path.empty()) {
    json_out.open(options.json_path, std::ios::binary);
    if (!json_out) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   options.json_path.c_str());
      return 2;
    }
  }

  if (options.trace_parallel && options.trace_path.empty()) {
    std::fprintf(stderr, "error: --trace-parallel requires --trace <path>\n");
    return 2;
  }
  // The trace and profile sessions are process-wide recorders the
  // scenario's cloud (respectively the instrumented phases) capture
  // directly, so concurrent scenarios would interleave into one recording.
  // Sequential multi-scenario runs compose instead: export + reset between
  // scenarios, one suffixed file each. That is what they get without
  // --jobs; an explicit other value is a named error — never a silent
  // drop. (A sweep's points within one scenario need no such care: the
  // profiler keeps per-thread slots, and points run in turn under a
  // trace.)
  const bool tracing = !options.trace_path.empty();
  const bool profiling = !options.profile_path.empty();
  const bool multi = selected.size() > 1;
  if ((tracing || profiling) && multi && options.jobs.value_or(1) != 1) {
    std::fprintf(stderr,
                 "error: --trace/--profile with %zu scenarios requires "
                 "--jobs 1 (sequential runs write per-scenario files "
                 "<stem>.<scenario>.<ext>)\n",
                 selected.size());
    return 2;
  }
  // Installing a recorder is what turns it on; each one uninstalls itself
  // when it goes out of scope at the end of this function.
  obs::TraceRecorder trace;
  if (tracing) obs::set_active_trace(&trace);
  obs::Profiler profiler;
  if (profiling) obs::set_active_profiler(&profiler);

  bool side_output_failed = false;
  const auto write_side_file = [&](const std::string& path,
                                   const std::string& body, const char* what,
                                   std::size_t count) {
    std::ofstream out(path, std::ios::binary);
    if (out) out << body;
    out.close();
    if (!out) {
      std::fprintf(stderr, "error: failed writing '%s'\n", path.c_str());
      side_output_failed = true;
      return;
    }
    std::printf("wrote %zu %s to %s\n", count, what, path.c_str());
  };

  const OutcomeCallback print_outcome = [&](const ScenarioOutcome& outcome,
                                            std::size_t) {
    if (!outcome.ok) {
      std::fprintf(stderr, "error: scenario '%s' failed: %s\n",
                   outcome.name.c_str(), outcome.error.c_str());
    } else if (!options.quiet) {
      print_result(outcome.result);
      if (options.metrics) print_observability(outcome.result);
      std::printf("  [%.2fs wall]\n\n", outcome.elapsed_s);
    } else {
      std::printf("%-24s done in %.2fs\n", outcome.name.c_str(),
                  outcome.elapsed_s);
      if (options.metrics) print_observability(outcome.result);
    }
    // Sequential composition: this callback runs between scenarios (and,
    // single-scenario, once at the end), so exporting + resetting here
    // scopes each output file to exactly one scenario run.
    if (tracing) {
      const std::string path =
          multi ? per_scenario_path(options.trace_path, outcome.name)
                : options.trace_path;
      write_side_file(path, trace.export_json(options.trace_parallel),
                      "trace event(s)", trace.event_count());
      trace.clear();
    }
    if (profiling) {
      const obs::ProfilerSnapshot snap = profiler.snapshot();
      // Boundary samples: the scenario's own wall clock plus the process
      // RSS right after it finished. Nondeterministic by nature, which is
      // why they live here and never in the deterministic report.
      const auto wall_ns =
          static_cast<std::uint64_t>(outcome.elapsed_s * 1e9);
      const std::string path =
          multi ? per_scenario_path(options.profile_path, outcome.name)
                : options.profile_path;
      write_side_file(path,
                      obs::profile_to_json(snap, wall_ns,
                                           obs::process_rss_bytes(),
                                           obs::process_rss_peak_bytes()),
                      "profiled phase(s)", obs::kProfPhaseCount);
      write_side_file(path + ".stacks", obs::collapsed_stacks(snap),
                      "stack line(s)", snap.paths.size());
      profiler.clear();
    }
  };
  const std::vector<ScenarioOutcome> outcomes =
      run_scenarios(selected, overrides, options.seed, options.smoke,
                    effective_jobs(options, selected.size()), print_outcome);

  std::vector<Result> results;
  results.reserve(outcomes.size());
  std::size_t failures = 0;
  for (const ScenarioOutcome& outcome : outcomes) {
    if (outcome.ok) {
      results.push_back(outcome.result);
    } else {
      ++failures;
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "error: %zu of %zu scenario(s) failed\n", failures,
                 outcomes.size());
  }

  if (json_out.is_open()) {
    json_out << report_to_json(results);
    json_out.close();
    if (!json_out) {
      std::fprintf(stderr, "error: failed writing '%s'\n",
                   options.json_path.c_str());
      return 1;
    }
    std::printf("wrote %zu result(s) to %s\n", results.size(),
                options.json_path.c_str());
  }
  return failures > 0 || side_output_failed ? 1 : 0;
}

}  // namespace stopwatch::experiment
