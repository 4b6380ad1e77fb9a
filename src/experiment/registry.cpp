#include "experiment/registry.hpp"

#include <utility>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace stopwatch::experiment {

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry registry;
  return registry;
}

void ScenarioRegistry::add(Scenario scenario) {
  SW_EXPECTS(!scenario.name.empty());
  SW_EXPECTS(scenario.run != nullptr);
  SW_EXPECTS(!scenarios_.contains(scenario.name));
  scenarios_.emplace(scenario.name, std::move(scenario));
}

const Scenario* ScenarioRegistry::find(const std::string& name) const {
  const auto it = scenarios_.find(name);
  return it == scenarios_.end() ? nullptr : &it->second;
}

std::vector<const Scenario*> ScenarioRegistry::list() const {
  std::vector<const Scenario*> out;
  out.reserve(scenarios_.size());
  for (const auto& [_, scenario] : scenarios_) out.push_back(&scenario);
  return out;
}

Result ScenarioRegistry::run(const std::string& name, std::uint64_t seed,
                             bool smoke, ParamOverrides overrides,
                             ThreadBudget* budget) const {
  const Scenario* scenario = find(name);
  SW_EXPECTS(scenario != nullptr);
  const ScenarioContext ctx(derive_scenario_seed(seed, name), smoke,
                            std::move(overrides), scenario->params, budget);
  Result result = scenario->run(ctx);
  SW_ENSURES(result.scenario() == scenario->name);
  result.set_context(seed, smoke, ctx.resolved());
  return result;
}

ScenarioRegistrar::ScenarioRegistrar(Scenario scenario) {
  ScenarioRegistry::instance().add(std::move(scenario));
}

std::uint64_t derive_scenario_seed(std::uint64_t seed,
                                   const std::string& name) {
  // FNV-1a over the name gives a stable per-scenario tag; splitmix64 then
  // mixes tag and seed so adjacent seeds do not yield adjacent streams.
  std::uint64_t tag = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    tag ^= static_cast<unsigned char>(c);
    tag *= 0x100000001b3ULL;
  }
  SplitMix64 mixer(seed ^ tag);
  return mixer.next();
}

}  // namespace stopwatch::experiment
