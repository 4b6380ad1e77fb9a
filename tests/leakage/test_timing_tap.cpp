// TimingTap end to end over a real Cloud: labeled inter-release gaps,
// trial-duration bracketing, baseline direct-emission observation, and the
// headline determinism property — the same seed must produce a
// byte-identical ObservationLog.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "core/cloud.hpp"
#include "leakage/observation_log.hpp"
#include "leakage/timing_tap.hpp"
#include "vm/guest.hpp"

namespace stopwatch::leakage {
namespace {

/// Emits one packet to `sink` every 10 ms of virtual time, paying `work`
/// instructions per emission.
class BeaconProgram final : public vm::GuestProgram {
 public:
  BeaconProgram(NodeId sink, std::uint64_t work) : sink_(sink), work_(work) {}

  void on_boot(vm::GuestApi& api) override {
    api_ = &api;
    schedule();
  }
  void on_timer_tick(vm::GuestApi&, std::uint64_t) override {}
  void on_packet(vm::GuestApi&, const net::Packet&) override {}

 private:
  void schedule() {
    api_->set_timer(Duration::millis(10), [this] {
      api_->compute(work_, [this] {
        net::Packet pkt;
        pkt.dst = sink_;
        pkt.kind = net::PacketKind::kData;
        pkt.size_bytes = 256;
        pkt.seq = ++seq_;
        api_->send_packet(pkt);
        schedule();
      });
    });
  }

  NodeId sink_;
  std::uint64_t work_;
  vm::GuestApi* api_{nullptr};
  std::uint64_t seq_{0};
};

struct TapFixture {
  core::Cloud cloud;
  NodeId sink;
  core::VmHandle vm;

  explicit TapFixture(core::PolicyKind policy, std::uint64_t seed)
      : cloud([&] {
          core::CloudConfig cfg;
          cfg.seed = seed;
          cfg.policy = policy;
          cfg.machine_count = 3;
          return cfg;
        }()) {
    sink = cloud.add_external_node([](const net::Packet&) {});
    const NodeId sink_copy = sink;
    vm = cloud.add_vm(
        "beacon",
        [sink_copy] {
          return std::make_unique<BeaconProgram>(sink_copy, 50'000);
        },
        {0, 1, 2});
  }
};

TEST(TimingTap, RecordsLabeledInterReleaseGaps) {
  TapFixture fx(core::PolicyKind::kStopWatch, 11);
  ObservationLog log(ObservationLogConfig{11, 1024});
  TimingTap tap(fx.cloud, fx.vm, TimingTap::Mode::kInterRelease, log);
  fx.cloud.start();

  tap.set_secret_class(0);
  fx.cloud.run_for(Duration::millis(500));
  tap.set_secret_class(1);
  fx.cloud.run_for(Duration::millis(500));
  fx.cloud.halt_all();

  EXPECT_GT(tap.releases_seen(), 40u);
  ASSERT_EQ(log.classes(), (std::vector<int>{0, 1}));
  EXPECT_GT(log.samples(0).size(), 20u);
  EXPECT_GT(log.samples(1).size(), 20u);
  // ~10 ms beacon cadence: the mean inter-release gap must sit near it.
  const std::vector<double>& gaps = log.samples(0);
  const double mean_gap = std::accumulate(gaps.begin(), gaps.end(), 0.0) /
                          static_cast<double>(gaps.size());
  EXPECT_GT(mean_gap, 5.0);
  EXPECT_LT(mean_gap, 20.0);
  // The egress releases the tap saw are the cloud's released packets.
  EXPECT_EQ(tap.releases_seen(),
            fx.cloud.egress_stats(fx.vm).packets_released);
}

TEST(TimingTap, SameSeedProducesByteIdenticalObservationLog) {
  const auto capture = [](std::uint64_t seed) {
    TapFixture fx(core::PolicyKind::kStopWatch, seed);
    ObservationLog log(ObservationLogConfig{seed, 64});
    TimingTap tap(fx.cloud, fx.vm, TimingTap::Mode::kInterRelease, log);
    fx.cloud.start();
    tap.set_secret_class(0);
    fx.cloud.run_for(Duration::millis(400));
    tap.set_secret_class(1);
    fx.cloud.run_for(Duration::millis(400));
    fx.cloud.halt_all();
    return log.serialize();
  };
  const std::string first = capture(21);
  const std::string second = capture(21);
  EXPECT_EQ(first, second);
  EXPECT_NE(first, capture(22));
}

TEST(TimingTap, TrialDurationBracketsReleases) {
  TapFixture fx(core::PolicyKind::kStopWatch, 31);
  ObservationLog log(ObservationLogConfig{31, 16});
  TimingTap tap(fx.cloud, fx.vm, TimingTap::Mode::kTrialDuration, log);
  fx.cloud.start();

  tap.begin_trial(2);
  fx.cloud.run_for(Duration::millis(100));
  EXPECT_TRUE(tap.end_trial());
  ASSERT_EQ(log.samples(2).size(), 1u);
  // Span from trial start to the last release inside the 100 ms window.
  EXPECT_GT(log.samples(2).front(), 0.0);
  EXPECT_LE(log.samples(2).front(), 100.0);

  // A trial during which nothing was released records nothing.
  tap.begin_trial(3);
  EXPECT_FALSE(tap.end_trial());
  EXPECT_EQ(log.classes(), std::vector<int>{2});

  // Protocol misuse is a contract violation, not silent mislabeling.
  tap.begin_trial(4);
  EXPECT_THROW(tap.begin_trial(5), ContractViolation);
  fx.cloud.halt_all();
}

TEST(TimingTap, BaselineDirectEmissionIsObserved) {
  // Under unmodified Xen output skips the egress median gate; the tap must
  // still see the attacker-visible instant (the VMM's direct send).
  TapFixture fx(core::PolicyKind::kBaselineXen, 41);
  ObservationLog log(ObservationLogConfig{41, 1024});
  TimingTap tap(fx.cloud, fx.vm, TimingTap::Mode::kInterRelease, log);
  fx.cloud.start();
  tap.set_secret_class(0);
  fx.cloud.run_for(Duration::millis(500));
  fx.cloud.halt_all();
  EXPECT_GT(tap.releases_seen(), 30u);
  EXPECT_GT(log.samples(0).size(), 20u);
}

TEST(TimingTap, ModeGuardsRejectMismatchedCalls) {
  TapFixture fx(core::PolicyKind::kStopWatch, 51);
  ObservationLog log;
  TimingTap tap(fx.cloud, fx.vm, TimingTap::Mode::kInterRelease, log);
  EXPECT_THROW(tap.begin_trial(0), ContractViolation);
  EXPECT_THROW(static_cast<void>(tap.end_trial()), ContractViolation);
}

}  // namespace
}  // namespace stopwatch::leakage
