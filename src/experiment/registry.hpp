// Process-wide scenario catalog. Scenario translation units self-register
// via ScenarioRegistrar at static-initialization time; lookup and listing
// are name-sorted so registration (link) order never leaks into output.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "experiment/result.hpp"
#include "experiment/scenario.hpp"

namespace stopwatch::experiment {

class ScenarioRegistry {
 public:
  /// The process-wide registry (Meyers singleton, safe during static init).
  static ScenarioRegistry& instance();

  /// Registers a scenario; the name must be unique and the run fn non-null.
  void add(Scenario scenario);

  /// Looks up a scenario by name; nullptr if unknown.
  [[nodiscard]] const Scenario* find(const std::string& name) const;

  /// All scenarios, sorted by name.
  [[nodiscard]] std::vector<const Scenario*> list() const;

  [[nodiscard]] std::size_t size() const { return scenarios_.size(); }

  /// Runs a registered scenario and stamps the Result with the invocation
  /// context. The single entry point used by the runner and by tests. The
  /// scenario's RNG stream is seeded with derive_scenario_seed(seed, name),
  /// so sibling scenarios of one invocation draw decorrelated streams and a
  /// scenario's output depends only on (seed, name, params) — never on
  /// which other scenarios ran, or on what thread ran it. The Result is
  /// stamped with the invocation `seed`, the value a user re-runs with.
  /// The scenario's sweeps draw helper threads from `budget` (null: none).
  [[nodiscard]] Result run(const std::string& name, std::uint64_t seed,
                           bool smoke, ParamOverrides overrides = {},
                           ThreadBudget* budget = nullptr) const;

 private:
  std::map<std::string, Scenario> scenarios_;
};

/// Expands one user-facing seed into the per-scenario stream seed: an
/// FNV-1a hash of `name` mixed with `seed` through splitmix64. Stable
/// across platforms and runs — part of the stopwatch-bench/1 contract.
[[nodiscard]] std::uint64_t derive_scenario_seed(std::uint64_t seed,
                                                 const std::string& name);

/// Static-object helper: `static ScenarioRegistrar reg{{...}};` at namespace
/// scope in a scenario .cpp registers the scenario before main() runs.
struct ScenarioRegistrar {
  explicit ScenarioRegistrar(Scenario scenario);
};

}  // namespace stopwatch::experiment
