// BaselineXen backend — unmodified Xen semantics, the comparison baseline
// for every experiment: the guest clock passes through machine-local real
// time, inbound packets are delivered as soon as Dom0 has processed them,
// and guest outputs are emitted directly by the hosting machine — which is
// exactly what leaks coresident-victim activity.
#include "hypervisor/policy.hpp"

namespace stopwatch::hypervisor {

namespace {

class BaselineXenPolicy final : public MitigationPolicy {
 public:
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::kBaselineXen;
  }

  [[nodiscard]] bool replicated() const override { return false; }
  [[nodiscard]] bool tunnels_output() const override { return false; }
  [[nodiscard]] VirtualClock::Mode clock_mode() const override {
    return VirtualClock::Mode::kRealPassthrough;
  }

  // Immediate delivery: the packet is visible at the Dom0-processing-done
  // instant on the machine-local clock (== the guest clock).
  // direct_delivery inherits the base arrival_local passthrough.

  [[nodiscard]] std::int64_t disk_delivery(
      std::int64_t /*guest_now*/, std::int64_t done_local) const override {
    return done_local;
  }
};

}  // namespace

std::unique_ptr<MitigationPolicy> make_baseline_xen_policy() {
  return std::make_unique<BaselineXenPolicy>();
}

}  // namespace stopwatch::hypervisor
