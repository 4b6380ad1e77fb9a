// Deterland backend (arXiv:1504.07070) — deterministic execution on an
// artificial (virtualized) clock. The guest runs against the same Eqn.-1
// virtual clock as StopWatch, but without replication: timing-channel
// mitigation comes from quantization instead of agreement. Everything the
// guest (or the wire) can observe happens only at batch boundaries of the
// artificial time:
//   * inbound packets become visible at the first boundary at or after
//     guest-now + Δn, disk completions at or after guest-now + Δd — the
//     deadline is a deterministic function of artificial time, so an
//     unfinished physical transfer at the deadline counts as a divergence
//     exactly as under StopWatch;
//   * outputs are tunneled to the egress gateway, which projects the batch
//     grid onto the wire: a release waits for the next real-time multiple
//     of the batch quantum.
#include "hypervisor/policy.hpp"

#include "common/contracts.hpp"

namespace stopwatch::hypervisor {

namespace {

/// Smallest multiple of `quantum` at or after `t` (batch boundary).
std::int64_t quantize_up(std::int64_t t, std::int64_t quantum) {
  if (t <= 0) return 0;
  return ((t + quantum - 1) / quantum) * quantum;
}

class DeterlandPolicy final : public MitigationPolicy {
 public:
  explicit DeterlandPolicy(DeterlandPolicyConfig cfg) : cfg_(cfg) {
    SW_EXPECTS(cfg_.batch_quantum.ns >= 1);
    SW_EXPECTS(cfg_.delta_n.ns >= 0);
    SW_EXPECTS(cfg_.delta_d.ns >= 0);
  }

  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::kDeterland;
  }

  [[nodiscard]] bool replicated() const override { return false; }
  [[nodiscard]] bool tunnels_output() const override { return true; }
  [[nodiscard]] VirtualClock::Mode clock_mode() const override {
    return VirtualClock::Mode::kVirtualized;
  }

  [[nodiscard]] std::int64_t direct_delivery(
      std::int64_t /*arrival_local*/, std::int64_t guest_now) const override {
    ++stats_.deliveries_quantized;
    return quantize_up(guest_now + cfg_.delta_n.ns, cfg_.batch_quantum.ns);
  }

  [[nodiscard]] std::int64_t disk_delivery(
      std::int64_t guest_now, std::int64_t /*done_local*/) const override {
    ++stats_.deliveries_quantized;
    return quantize_up(guest_now + cfg_.delta_d.ns, cfg_.batch_quantum.ns);
  }
  [[nodiscard]] bool deterministic_disk_deadline() const override {
    return true;
  }

  [[nodiscard]] Duration egress_release_delay(std::uint32_t /*vm*/,
                                              RealTime now) override {
    ++stats_.egress_releases;
    const std::int64_t q = cfg_.batch_quantum.ns;
    return Duration{(q - now.ns % q) % q};
  }
  [[nodiscard]] Duration release_quantum() const override {
    return cfg_.batch_quantum;
  }

 private:
  DeterlandPolicyConfig cfg_;
};

}  // namespace

std::unique_ptr<MitigationPolicy> make_deterland_policy(
    const DeterlandPolicyConfig& cfg) {
  return std::make_unique<DeterlandPolicy>(cfg);
}

}  // namespace stopwatch::hypervisor
