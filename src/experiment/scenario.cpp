#include "experiment/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/contracts.hpp"
#include "common/json_emit.hpp"
#include "experiment/json.hpp"

namespace stopwatch::experiment {

ParamSpec ParamSpec::enumeration(std::string name, std::string description,
                                 std::string default_choice,
                                 std::vector<std::string> choices) {
  SW_EXPECTS(!choices.empty());
  SW_EXPECTS(std::find(choices.begin(), choices.end(), default_choice) !=
             choices.end());
  for (const std::string& c : choices) SW_EXPECTS(!c.empty());
  ParamSpec out;
  out.name = std::move(name);
  out.description = std::move(description);
  out.kind = Kind::kEnum;
  out.default_choice = std::move(default_choice);
  out.choices = std::move(choices);
  return out;
}

ParamSpec ParamSpec::with_range(double lo, double hi) const {
  SW_EXPECTS(kind == Kind::kNumeric);
  SW_EXPECTS(lo <= hi);
  SW_EXPECTS(lo <= default_value && default_value <= hi);
  SW_EXPECTS(lo <= smoke_value && smoke_value <= hi);
  ParamSpec out = *this;
  out.min_value = lo;
  out.max_value = hi;
  return out;
}

ParamSpec ParamSpec::with_int_range(double lo, double hi) const {
  SW_EXPECTS(std::nearbyint(default_value) == default_value);
  SW_EXPECTS(std::nearbyint(smoke_value) == smoke_value);
  ParamSpec out = with_range(lo, hi);
  out.integral = true;
  return out;
}

std::string ParamSpec::choices_joined() const {
  std::string out;
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (i > 0) out += "|";
    out += choices[i];
  }
  return out;
}

std::string ParamSpec::reject_reason(const std::string& text) const {
  if (kind == Kind::kEnum) {
    if (std::find(choices.begin(), choices.end(), text) != choices.end()) {
      return {};
    }
    return "must be one of " + choices_joined();
  }
  double value = 0.0;
  if (!parse_double_strict(text, value)) return "expects a number";
  // Written so that NaN, which compares false both ways, is out of range.
  if (!(min_value <= value && value <= max_value)) {
    char range[64];
    std::snprintf(range, sizeof range, "[%g, %g]", min_value, max_value);
    return std::string("is out of range ") + range;
  }
  if (integral && std::nearbyint(value) != value) {
    return "must be a whole number";
  }
  return {};
}

ScenarioContext::ScenarioContext(std::uint64_t seed, bool smoke,
                                 ParamOverrides overrides,
                                 const std::vector<ParamSpec>& schema,
                                 ThreadBudget* budget)
    : seed_(seed), smoke_(smoke), budget_(budget) {
  for (const ParamSpec& spec : schema) {
    SW_EXPECTS(!values_.contains(spec.name) && !choices_.contains(spec.name));
    const bool is_enum = spec.kind == ParamSpec::Kind::kEnum;
    const auto it = overrides.find(spec.name);
    if (it == overrides.end()) {
      if (is_enum) {
        choices_[spec.name] = spec.default_choice;
      } else {
        values_[spec.name] = smoke ? spec.smoke_value : spec.default_value;
      }
    } else {
      const std::string reason = spec.reject_reason(it->second);
      SW_EXPECTS_MSG(reason.empty(), "parameter '" + spec.name + "' " +
                                         reason + " (got '" + it->second +
                                         "')");
      if (is_enum) {
        choices_[spec.name] = it->second;
      } else {
        double value = 0.0;
        // Cannot fail: reject_reason parsed the same text.
        static_cast<void>(parse_double_strict(it->second, value));
        values_[spec.name] = value;
      }
      overrides.erase(it);
    }
    order_.push_back(spec.name);
  }
  // Overrides must name declared parameters, or a typo would silently run
  // the scenario with defaults.
  SW_EXPECTS(overrides.empty());
}

double ScenarioContext::param(const std::string& name) const {
  const auto it = values_.find(name);
  SW_EXPECTS(it != values_.end());
  return it->second;
}

int ScenarioContext::param_int(const std::string& name) const {
  const double v = param(name);
  SW_EXPECTS(std::nearbyint(v) == v);
  return static_cast<int>(v);
}

const std::string& ScenarioContext::param_choice(
    const std::string& name) const {
  const auto it = choices_.find(name);
  SW_EXPECTS(it != choices_.end());
  return it->second;
}

std::vector<std::pair<std::string, std::string>> ScenarioContext::resolved()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(order_.size());
  for (const std::string& name : order_) {
    const auto choice = choices_.find(name);
    if (choice != choices_.end()) {
      out.emplace_back(name, json_string(choice->second));
    } else {
      out.emplace_back(name, json_number(values_.at(name)));
    }
  }
  return out;
}

}  // namespace stopwatch::experiment
