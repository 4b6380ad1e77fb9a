// TifcPacing backend (arXiv:1003.5303, "Determinating Timing Channels in
// Compute Clouds") — the guest itself runs on unmodified-Xen semantics
// (real passthrough clock, immediate inbound delivery), but its outputs
// drain through a per-flow paced egress queue: the wire sees release
// instants only on a fixed quantum grid, and consecutive releases of one
// VM's flow are at least one quantum apart. Output timing therefore
// carries at most log2(queue occupancy) bits per quantum regardless of
// when the guest produced the packets.
#include "hypervisor/policy.hpp"

#include <algorithm>
#include <map>

#include "common/contracts.hpp"

namespace stopwatch::hypervisor {

namespace {

class TifcPacingPolicy final : public MitigationPolicy {
 public:
  explicit TifcPacingPolicy(TifcPolicyConfig cfg) : cfg_(cfg) {
    SW_EXPECTS(cfg_.release_quantum.ns >= 1);
  }

  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::kTifcPacing;
  }

  [[nodiscard]] bool replicated() const override { return false; }
  [[nodiscard]] bool tunnels_output() const override { return true; }
  [[nodiscard]] VirtualClock::Mode clock_mode() const override {
    return VirtualClock::Mode::kRealPassthrough;
  }

  // Inbound path inherits the base behavior: immediate delivery at the
  // Dom0-processing-done instant.

  [[nodiscard]] std::int64_t disk_delivery(
      std::int64_t /*guest_now*/, std::int64_t done_local) const override {
    return done_local;
  }

  [[nodiscard]] Duration egress_release_delay(std::uint32_t vm,
                                              RealTime now) override {
    ++stats_.egress_releases;
    const std::int64_t q = cfg_.release_quantum.ns;
    // Grid-align, then keep FIFO spacing of at least one quantum within
    // the VM's flow (the paced-queue drain rate).
    const std::int64_t aligned = ((now.ns + q - 1) / q) * q;
    std::int64_t release = aligned;
    const auto it = last_release_.find(vm);
    if (it != last_release_.end()) {
      release = std::max(release, it->second + q);
    }
    last_release_[vm] = release;
    return Duration{release - now.ns};
  }
  [[nodiscard]] Duration release_quantum() const override {
    return cfg_.release_quantum;
  }

 private:
  TifcPolicyConfig cfg_;
  /// Per-VM (per-flow) lane: real-time instant of the last scheduled
  /// release.
  std::map<std::uint32_t, std::int64_t> last_release_;
};

}  // namespace

std::unique_ptr<MitigationPolicy> make_tifc_policy(
    const TifcPolicyConfig& cfg) {
  return std::make_unique<TifcPacingPolicy>(cfg);
}

}  // namespace stopwatch::hypervisor
