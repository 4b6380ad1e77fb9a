#include "experiment/scenario.hpp"

#include <algorithm>
#include <cmath>

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

ScenarioContext::ScenarioContext(std::uint64_t seed, bool smoke,
                                 ParamOverrides overrides,
                                 const std::vector<ParamSpec>& schema)
    : seed_(seed), smoke_(smoke) {
  for (const ParamSpec& spec : schema) {
    SW_EXPECTS(!values_.contains(spec.name) && !choices_.contains(spec.name));
    const auto it = overrides.find(spec.name);
    if (spec.kind == ParamSpec::Kind::kEnum) {
      if (it != overrides.end()) {
        SW_EXPECTS_MSG(std::find(spec.choices.begin(), spec.choices.end(),
                                 it->second) != spec.choices.end(),
                       "parameter '" + spec.name + "' must be one of " +
                           spec.choices_joined() + " (got '" + it->second +
                           "')");
        choices_[spec.name] = it->second;
        overrides.erase(it);
      } else {
        choices_[spec.name] = spec.default_choice;
      }
    } else {
      if (it != overrides.end()) {
        double value = 0.0;
        SW_EXPECTS_MSG(parse_double_strict(it->second, value),
                       "parameter '" + spec.name + "' expects a number (got '" +
                           it->second + "')");
        SW_EXPECTS(spec.min_value <= value && value <= spec.max_value);
        SW_EXPECTS(!spec.integral || std::nearbyint(value) == value);
        values_[spec.name] = value;
        overrides.erase(it);
      } else {
        values_[spec.name] = smoke ? spec.smoke_value : spec.default_value;
      }
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
