// Minimal JSON reading for experiment results, the consumer half of the
// emission helpers in common/json_emit.hpp: stopwatch_bench_diff loads
// stopwatch-bench/1 reports through JsonValue to compare bench
// trajectories in CI.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace stopwatch::experiment {

/// Parses `s` as a double, requiring the whole string to be consumed (no
/// trailing garbage, no leading whitespace). The one numeric-override
/// parser shared by the CLI pre-validation and the ScenarioContext
/// contract check, so both accept exactly the same strings.
[[nodiscard]] bool parse_double_strict(std::string_view s, double& out);

/// A parsed JSON document node. Objects preserve member order and allow
/// duplicate-free lookup by key; accessors contract-check the kind, so a
/// schema mismatch surfaces as a ContractViolation instead of garbage.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses `text` (a complete JSON document; trailing garbage is an
  /// error). Returns false with a position-annotated message on `error`.
  [[nodiscard]] static bool parse(std::string_view text, JsonValue& out,
                                  std::string& error);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

 private:
  friend class JsonParser;

  Kind kind_{Kind::kNull};
  bool bool_{false};
  double number_{0.0};
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace stopwatch::experiment
