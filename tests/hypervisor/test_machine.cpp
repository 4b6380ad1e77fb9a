#include "hypervisor/machine.hpp"

#include <gtest/gtest.h>

namespace stopwatch::hypervisor {
namespace {

struct FakeLoad final : LoadSource {
  double value{0.0};
  [[nodiscard]] double activity() const override { return value; }
};

MachineConfig quiet_config() {
  MachineConfig cfg;
  cfg.ips_jitter_sigma = 0.0;
  cfg.vmm_delay_jitter_sigma = 0.0;
  cfg.disk_seek_min = Duration::millis(3);
  cfg.disk_seek_max = Duration::millis(3);
  return cfg;
}

TEST(Machine, LocalClockIncludesOffset) {
  sim::Simulator sim;
  Machine m(MachineId{0}, sim, quiet_config(), Duration::millis(25), Rng(1));
  EXPECT_EQ(m.local_clock().ns, Duration::millis(25).ns);
  sim.schedule_at(RealTime::millis(10), [] {});
  sim.run();
  EXPECT_EQ(m.local_clock().ns, Duration::millis(35).ns);
}

TEST(Machine, ContentionSlowsEffectiveIps) {
  sim::Simulator sim;
  Machine m(MachineId{0}, sim, quiet_config(), Duration{}, Rng(2));
  FakeLoad self, other;
  m.register_load_source(&self);
  m.register_load_source(&other);
  other.value = 1.0;
  const double solo = m.effective_ips(0.0, 1.0);
  const double contended = m.effective_ips(m.load_excluding(&self), 1.0);
  EXPECT_DOUBLE_EQ(solo, 1e9);
  EXPECT_NEAR(contended, 1e9 / 1.7, 1.0);  // alpha = 0.7, load = 1
}

TEST(Machine, LoadExcludingSkipsSelf) {
  sim::Simulator sim;
  Machine m(MachineId{0}, sim, quiet_config(), Duration{}, Rng(3));
  FakeLoad a, b;
  a.value = 0.5;
  b.value = 0.25;
  m.register_load_source(&a);
  m.register_load_source(&b);
  EXPECT_DOUBLE_EQ(m.load_excluding(&a), 0.25);
  EXPECT_DOUBLE_EQ(m.load_excluding(&b), 0.5);
  EXPECT_DOUBLE_EQ(m.load_excluding(nullptr), 0.75);
}

TEST(Machine, ExtraLoadCountsTowardContention) {
  sim::Simulator sim;
  Machine m(MachineId{0}, sim, quiet_config(), Duration{}, Rng(4));
  m.set_extra_load(2.0);
  EXPECT_DOUBLE_EQ(m.load_excluding(nullptr), 2.0);
}

TEST(Machine, VmmDelayGrowsWithLoad) {
  sim::Simulator sim;
  Machine m(MachineId{0}, sim, quiet_config(), Duration{}, Rng(5));
  const auto idle = m.vmm_processing_delay(0.0);
  const auto busy = m.vmm_processing_delay(1.0);
  EXPECT_EQ(idle.ns, quiet_config().vmm_base_delay.ns);
  EXPECT_EQ(busy.ns,
            quiet_config().vmm_base_delay.ns + quiet_config().vmm_load_delay.ns);
}

TEST(Machine, DiskIsFifoAndAccountsSeekPlusTransfer) {
  sim::Simulator sim;
  MachineConfig cfg = quiet_config();
  cfg.disk_bytes_per_second = 1e6;  // 1 MB/s
  Machine m(MachineId{0}, sim, cfg, Duration{}, Rng(6));
  // 1000 bytes at 1 MB/s = 1 ms transfer; 3 ms seek.
  const RealTime first = m.schedule_disk_op(1000);
  EXPECT_EQ(first.ns, Duration::millis(4).ns);
  // Second op queues behind the first.
  const RealTime second = m.schedule_disk_op(1000);
  EXPECT_EQ(second.ns, Duration::millis(8).ns);
  EXPECT_EQ(m.stats().disk_ops, 2u);
  EXPECT_EQ(m.stats().disk_bytes, 2000u);
}

TEST(Machine, DiskQueueDrainsOverTime) {
  sim::Simulator sim;
  MachineConfig cfg = quiet_config();
  Machine m(MachineId{0}, sim, cfg, Duration{}, Rng(7));
  const RealTime first = m.schedule_disk_op(0);
  sim.schedule_at(RealTime::millis(100), [] {});
  sim.run();
  // After the queue is idle, a new op starts from "now".
  const RealTime second = m.schedule_disk_op(0);
  EXPECT_EQ(second.ns, (sim.now() + Duration::millis(3)).ns);
  EXPECT_GT(second.ns, first.ns);
}

}  // namespace
}  // namespace stopwatch::hypervisor
