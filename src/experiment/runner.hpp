// Command-line driver for the scenario registry — the implementation of the
// stopwatch_bench binary. Kept in the library so tests can exercise the
// exact CLI surface CI uses.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "experiment/result.hpp"
#include "experiment/scenario.hpp"

namespace stopwatch::experiment {

/// Parsed stopwatch_bench command line.
struct RunnerOptions {
  bool list{false};
  bool smoke{false};
  bool run_all{false};
  bool quiet{false};
  std::uint64_t seed{1};
  /// Threads for scenarios and their sweep points: 1 = sequential, 0 =
  /// one per hardware thread. Unset means 0, except that a multi-scenario
  /// --trace/--profile session runs at 1.
  std::optional<std::uint64_t> jobs;
  std::vector<std::string> scenarios;
  /// Raw --param key=value pairs in command-line order; values stay text
  /// until each scenario's schema says whether they are numbers or enum
  /// choices.
  std::vector<std::pair<std::string, std::string>> param_overrides;
  std::string json_path;
  /// Chrome/Perfetto trace-event JSON output path. The trace session is
  /// process-wide, so multi-scenario selections run at --jobs 1 (another
  /// explicit value is refused) and emit one suffixed file per scenario
  /// (<stem>.<scenario>.<ext>).
  std::string trace_path;
  /// Self-profile output path (wall-clock phase attribution + RSS, JSON;
  /// collapsed stacks land at <path>.stacks). Same composition rule as
  /// --trace: multi-scenario selections run at --jobs 1 and write
  /// per-scenario suffixed files.
  std::string profile_path;
  /// Include shard-execution-machinery tracks (barrier windows, per-core
  /// kernel counters) in the trace. These are inherently shard-dependent,
  /// so the default export omits them to keep traces byte-identical
  /// across sim_shards.
  bool trace_parallel{false};
  /// Print each result's observability counters/histograms as a table.
  bool metrics{false};
};

/// Parses argv into options. Returns false (with a message on `error`) on
/// malformed input.
[[nodiscard]] bool parse_runner_options(int argc, const char* const* argv,
                                        RunnerOptions& options,
                                        std::string& error);

/// The --jobs value a run of `scenario_count` scenarios uses: the one
/// given, else 0 (one thread per hardware thread) — except that a
/// multi-scenario --trace/--profile session runs at 1, as it must.
[[nodiscard]] std::uint64_t effective_jobs(const RunnerOptions& options,
                                           std::size_t scenario_count);

/// The per-scenario output file a multi-scenario --trace/--profile run
/// writes: ".<scenario>" inserted before the path's final extension
/// ("out.json" -> "out.fig6_nfs.json"; extensionless paths just append).
[[nodiscard]] std::string per_scenario_path(const std::string& path,
                                            const std::string& scenario);

/// One scenario's execution outcome within a runner invocation. A throwing
/// scenario is captured here instead of aborting its siblings.
struct ScenarioOutcome {
  std::string name;
  bool ok{false};
  /// exception::what() (or a placeholder for non-std exceptions) when !ok.
  std::string error;
  /// Valid only when ok.
  Result result;
  double elapsed_s{0.0};
};

/// Invoked once per scenario, in selection order; calls never overlap, but
/// they may come from any of the run's threads.
using OutcomeCallback =
    std::function<void(const ScenarioOutcome&, std::size_t index)>;

/// Executes `selected` under a budget of `jobs` threads (1 = all in the
/// calling thread, 0 = one per hardware thread) through for_each_point:
/// scenarios claim threads first, and a scenario's sweep points take the
/// ones left over or returned. Each scenario runs in per-task isolation:
/// its own derived RNG stream (see derive_scenario_seed), its own Result
/// sink, and its own exception capture. `overrides` is filtered per
/// scenario to the parameters it declares. Outcomes are returned — and
/// `on_complete` fires — in selection order regardless of completion
/// order, so reports are byte-identical across --jobs values.
[[nodiscard]] std::vector<ScenarioOutcome> run_scenarios(
    const std::vector<const Scenario*>& selected,
    const ParamOverrides& overrides, std::uint64_t seed, bool smoke,
    std::uint64_t jobs, const OutcomeCallback& on_complete = {});

/// Runs the experiment CLI: --list / --scenario <name> / --all / --seed N /
/// --smoke / --jobs N / --param k=v / --json <path>. Returns a process exit
/// code.
int run_cli(int argc, const char* const* argv);

}  // namespace stopwatch::experiment
