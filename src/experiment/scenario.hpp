// A Scenario is one self-contained experiment: a name, a description, a
// parameter schema, and a run function mapping a ScenarioContext (seed +
// smoke flag + parameter overrides) to a Result. Scenarios self-register
// with the ScenarioRegistry at static-initialization time; the
// stopwatch_bench and stopwatch_microbench runners and the determinism
// tests drive them through the registry, never through bespoke mains.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "experiment/result.hpp"

namespace stopwatch::experiment {

/// One knob a scenario exposes. Two kinds exist: numeric (durations, rates,
/// counts — representable as doubles) and enumerated (a string validated
/// against a declared choice list, e.g. an aggregation rule).
struct ParamSpec {
  enum class Kind { kNumeric, kEnum };

  ParamSpec(std::string name, std::string description, double default_value)
      : ParamSpec(std::move(name), std::move(description), default_value,
                  default_value) {}
  /// `smoke_value` is substituted in --smoke mode — the short deterministic
  /// CI configuration of the knob.
  ParamSpec(std::string name, std::string description, double default_value,
            double smoke_value)
      : name(std::move(name)),
        description(std::move(description)),
        default_value(default_value),
        smoke_value(smoke_value) {}

  /// Declares an enumerated parameter: overrides must be one of `choices`
  /// (which must contain `default_choice`). Smoke runs use the default.
  [[nodiscard]] static ParamSpec enumeration(std::string name,
                                             std::string description,
                                             std::string default_choice,
                                             std::vector<std::string> choices);

  /// Returns a copy restricted to [lo, hi]. Out-of-range CLI overrides are
  /// rejected before the scenario runs; a count knob without bounds lets
  /// `--param rate_count=0` index an empty vector.
  [[nodiscard]] ParamSpec with_range(double lo, double hi) const;
  /// with_range plus an integrality requirement, for count/iteration knobs
  /// read through param_int: fractional overrides are rejected up front.
  [[nodiscard]] ParamSpec with_int_range(double lo, double hi) const;

  /// "median|min|max" — for catalogs and error messages.
  [[nodiscard]] std::string choices_joined() const;

  /// Why `text` is not a valid override of this parameter ("must be one
  /// of a|b", "expects a number", "is out of range [lo, hi]", "must be a
  /// whole number"); empty when it is valid.
  [[nodiscard]] std::string reject_reason(const std::string& text) const;

  std::string name;
  std::string description;
  Kind kind{Kind::kNumeric};
  // Numeric knobs.
  double default_value{0.0};
  double smoke_value{0.0};
  double min_value = -std::numeric_limits<double>::infinity();
  double max_value = std::numeric_limits<double>::infinity();
  bool integral = false;
  // Enumerated knobs.
  std::string default_choice;
  std::vector<std::string> choices;

 private:
  ParamSpec() = default;
};

/// Raw parameter overrides as they arrive from the CLI or a caller: values
/// stay text until the schema says whether they are numbers or choices.
using ParamOverrides = std::map<std::string, std::string>;

class ThreadBudget;

/// The resolved inputs of one scenario run.
class ScenarioContext {
 public:
  /// `budget` is the --jobs thread budget the scenario's sweeps draw on
  /// (see for_each_point); null runs them on the calling thread.
  ScenarioContext(std::uint64_t seed, bool smoke, ParamOverrides overrides,
                  const std::vector<ParamSpec>& schema,
                  ThreadBudget* budget = nullptr);

  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] bool smoke() const { return smoke_; }
  [[nodiscard]] ThreadBudget* budget() const { return budget_; }

  /// The effective value of a declared numeric parameter: the override if
  /// given, else the schema's smoke/default value. Fails the contract for
  /// names not in the schema — scenarios must declare their knobs — and
  /// for enumerated parameters (use param_choice).
  [[nodiscard]] double param(const std::string& name) const;
  [[nodiscard]] int param_int(const std::string& name) const;
  /// The effective choice of a declared enumerated parameter.
  [[nodiscard]] const std::string& param_choice(const std::string& name) const;

  /// All effective parameter values in schema order, pre-encoded as JSON
  /// values (numbers or strings) for Result stamping.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> resolved()
      const;

 private:
  std::uint64_t seed_;
  bool smoke_;
  ThreadBudget* budget_;
  std::map<std::string, double> values_;
  std::map<std::string, std::string> choices_;
  std::vector<std::string> order_;
};

/// A registered experiment.
struct Scenario {
  std::string name;
  std::string description;
  std::vector<ParamSpec> params;
  std::function<Result(const ScenarioContext&)> run;
};

}  // namespace stopwatch::experiment
