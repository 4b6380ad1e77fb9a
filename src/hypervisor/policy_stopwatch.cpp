// StopWatch backend — the paper's system, a behavior-preserving port of
// the former `if (policy == kStopWatch)` branches (pinned byte-identical
// by tests/sim/test_golden_identity.cpp):
//   * virtualized guest clock (Eqn. 1) with sync beacons, fastest-replica
//     throttling, and optional epoch resync with a clamped slope;
//   * inbound delivery at the median (or ablation rule) of the replicas'
//     virt(last exit) + Δn proposals;
//   * disk completions at the deterministic virt(request) + Δd deadline;
//   * outputs tunneled to the egress and released on the (r+1)/2-th copy —
//     the median emission timing.
#include "hypervisor/policy.hpp"

#include <algorithm>
#include <vector>

#include "common/contracts.hpp"

namespace stopwatch::hypervisor {

namespace {

/// Real-time period of the virtual-time sync beacons.
constexpr Duration kSyncInterval = Duration::millis(2);

class StopWatchPolicy final : public MitigationPolicy {
 public:
  explicit StopWatchPolicy(StopWatchPolicyConfig cfg) : cfg_(cfg) {
    SW_EXPECTS(cfg_.delta_n.ns >= 0);
    SW_EXPECTS(cfg_.delta_d.ns >= 0);
    SW_EXPECTS(cfg_.max_replica_gap.ns >= 0);
    // epoch_instr only drives the epoch boundary when resync is on;
    // disabled-resync configs may leave it 0.
    SW_EXPECTS(!cfg_.epoch_resync || cfg_.epoch_instr >= 1);
    SW_EXPECTS(cfg_.slope_min > 0.0 && cfg_.slope_min <= cfg_.slope_max);
  }

  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::kStopWatch;
  }

  [[nodiscard]] bool replicated() const override { return true; }
  [[nodiscard]] bool tunnels_output() const override { return true; }
  [[nodiscard]] VirtualClock::Mode clock_mode() const override {
    return VirtualClock::Mode::kVirtualized;
  }

  [[nodiscard]] std::int64_t propose_delivery(
      std::int64_t guest_now) const override {
    return guest_now + cfg_.delta_n.ns;
  }

  [[nodiscard]] std::int64_t combine_proposals(
      const std::map<std::uint32_t, std::int64_t>& by_machine) const override {
    SW_EXPECTS(!by_machine.empty());
    ++stats_.replica_aggregations;
    std::vector<std::int64_t> vals;
    vals.reserve(by_machine.size());
    for (const auto& [machine, v] : by_machine) vals.push_back(v);
    std::sort(vals.begin(), vals.end());
    switch (cfg_.aggregation) {
      case AggregationRule::kMedian:
        return vals[(vals.size() - 1) / 2];
      case AggregationRule::kMin:
        return vals.front();
      case AggregationRule::kMax:
        return vals.back();
      case AggregationRule::kLeader: {
        const auto lit = by_machine.find(cfg_.leader_machine);
        SW_ASSERT(lit != by_machine.end());
        return lit->second;
      }
    }
    SW_ASSERT(false);
    return vals.back();
  }

  [[nodiscard]] std::int64_t disk_delivery(
      std::int64_t guest_now, std::int64_t /*done_local*/) const override {
    return guest_now + cfg_.delta_d.ns;
  }
  [[nodiscard]] bool deterministic_disk_deadline() const override {
    return true;
  }

  [[nodiscard]] Duration sync_interval() const override {
    return kSyncInterval;
  }
  [[nodiscard]] Duration max_replica_gap() const override {
    return cfg_.max_replica_gap;
  }
  [[nodiscard]] std::uint64_t epoch_instructions() const override {
    return cfg_.epoch_resync ? cfg_.epoch_instr : 0;
  }
  [[nodiscard]] double epoch_slope(double candidate) const override {
    return clamp_slope(candidate, cfg_.slope_min, cfg_.slope_max);
  }

  [[nodiscard]] int egress_release_copies(int wired_replicas) const override {
    return (wired_replicas + 1) / 2;
  }

 private:
  StopWatchPolicyConfig cfg_;
};

}  // namespace

std::unique_ptr<MitigationPolicy> make_stopwatch_policy(
    const StopWatchPolicyConfig& cfg) {
  return std::make_unique<StopWatchPolicy>(cfg);
}

}  // namespace stopwatch::hypervisor
