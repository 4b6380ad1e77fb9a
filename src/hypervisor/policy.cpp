#include "hypervisor/policy.hpp"

#include <array>
#include <string>

#include "common/contracts.hpp"

namespace stopwatch::hypervisor {

namespace {

/// The --param policy=... choices, indexed by PolicyKind.
constexpr std::array<std::string_view, 4> kPolicyNames = {
    "baseline", "stopwatch", "deterland", "tifc"};

}  // namespace

std::string_view MitigationPolicy::name() const {
  return policy_choice_name(kind());
}

void MitigationPolicy::validate_replicas(int replica_count,
                                         int machine_count) const {
  SW_EXPECTS_MSG(replica_count >= 1,
                 "CloudConfig.replica_count must be >= 1 (got " +
                     std::to_string(replica_count) + ")");
  SW_EXPECTS_MSG(replica_count % 2 == 1,
                 "CloudConfig.replica_count must be odd for median "
                 "agreement (got " +
                     std::to_string(replica_count) + ")");
  if (replicated()) {
    SW_EXPECTS_MSG(replica_count <= machine_count,
                   "CloudConfig.replica_count (" +
                       std::to_string(replica_count) +
                       ") cannot exceed machine_count (" +
                       std::to_string(machine_count) +
                       "): replicas must land on distinct machines");
  }
}

std::int64_t MitigationPolicy::propose_delivery(std::int64_t /*guest_now*/)
    const {
  SW_EXPECTS_MSG(false, "policy '" + std::string(name()) +
                            "' does not use delivery proposals");
  return 0;
}

std::int64_t MitigationPolicy::combine_proposals(
    const std::map<std::uint32_t, std::int64_t>& /*by_machine*/) const {
  SW_EXPECTS_MSG(false, "policy '" + std::string(name()) +
                            "' does not aggregate delivery proposals");
  return 0;
}

std::int64_t MitigationPolicy::direct_delivery(std::int64_t arrival_local,
                                               std::int64_t /*guest_now*/)
    const {
  return arrival_local;
}

int MitigationPolicy::egress_release_copies(int /*wired_replicas*/) const {
  return 1;
}

Duration MitigationPolicy::egress_release_delay(std::uint32_t /*vm*/,
                                                RealTime /*now*/) {
  ++stats_.egress_releases;
  return {};
}

std::unique_ptr<MitigationPolicy> make_policy(const PolicyConfig& cfg) {
  std::unique_ptr<MitigationPolicy> policy;
  switch (cfg.kind) {
    case PolicyKind::kBaselineXen:
      policy = make_baseline_xen_policy();
      break;
    case PolicyKind::kStopWatch:
      policy = make_stopwatch_policy(cfg.stopwatch);
      break;
    case PolicyKind::kDeterland:
      policy = make_deterland_policy(cfg.deterland);
      break;
    case PolicyKind::kTifcPacing:
      policy = make_tifc_policy(cfg.tifc);
      break;
  }
  SW_EXPECTS_MSG(policy != nullptr, "unknown PolicyKind");
  // Customized StopWatch replica knobs are dead weight under any policy
  // that does not replicate; failing here (naming the policy) beats
  // silently ignoring the configuration.
  if (!policy->replicated() && !(cfg.stopwatch == StopWatchPolicyConfig{})) {
    SW_EXPECTS_MSG(false,
                   "policy '" + std::string(policy->name()) +
                       "' does not replicate guest VMs, but StopWatch "
                       "replica knobs (PolicyConfig.stopwatch) were "
                       "customized; move them under kind = kStopWatch or "
                       "drop them");
  }
  return policy;
}

bool policy_replicated(PolicyKind kind) {
  return make_policy(PolicyConfig{kind})->replicated();
}

const std::vector<std::string>& policy_choices() {
  static const std::vector<std::string> kChoices(kPolicyNames.begin(),
                                                 kPolicyNames.end());
  return kChoices;
}

PolicyKind policy_kind_from_choice(const std::string& choice) {
  std::string expected;
  for (std::size_t i = 0; i < kPolicyNames.size(); ++i) {
    if (choice == kPolicyNames[i]) return static_cast<PolicyKind>(i);
    if (i > 0) expected += '|';
    expected += kPolicyNames[i];
  }
  SW_EXPECTS_MSG(false, "unknown policy choice '" + choice + "' (expected " +
                            expected + ")");
  return PolicyKind::kStopWatch;
}

std::string_view policy_choice_name(PolicyKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  SW_EXPECTS(index < kPolicyNames.size());
  return kPolicyNames[index];
}

}  // namespace stopwatch::hypervisor
