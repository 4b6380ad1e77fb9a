#include "vm/guest.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/contracts.hpp"

namespace stopwatch::vm {
namespace {

/// Program that records callbacks and can enqueue scripted work.
class ScriptedProgram final : public GuestProgram {
 public:
  void on_boot(GuestApi& api) override {
    api_ = &api;
    ++boots;
    if (boot_action) boot_action(api);
  }
  void on_timer_tick(GuestApi&, std::uint64_t tick) override {
    ticks.push_back(tick);
  }
  void on_packet(GuestApi& api, const net::Packet& pkt) override {
    packet_times_ns.push_back(api.now().ns);
    packet_seqs.push_back(pkt.seq);
  }

  std::function<void(GuestApi&)> boot_action;
  GuestApi* api_{nullptr};
  int boots{0};
  std::vector<std::uint64_t> ticks;
  std::vector<std::int64_t> packet_times_ns;
  std::vector<std::uint64_t> packet_seqs;
};

struct GuestFixture {
  std::int64_t virt_ns{0};
  ScriptedProgram* program{nullptr};
  std::unique_ptr<GuestVm> guest;

  explicit GuestFixture(std::function<void(GuestApi&)> boot = nullptr) {
    auto prog = std::make_unique<ScriptedProgram>();
    prog->boot_action = std::move(boot);
    program = prog.get();
    guest = std::make_unique<GuestVm>(
        VmId{1}, NodeId{42}, std::move(prog), 99,
        [this] { return VirtTime{virt_ns}; });
  }

  /// Run `n` instructions in boundary-sized steps, advancing virt 1ns/instr.
  void run(std::uint64_t n) {
    while (n > 0) {
      const std::uint64_t step = std::min(n, guest->instr_to_boundary());
      guest->advance(step);
      virt_ns += static_cast<std::int64_t>(step);
      n -= step;
    }
  }
};

TEST(GuestVm, BootRunsProgramOnce) {
  GuestFixture fx;
  fx.guest->boot();
  EXPECT_EQ(fx.program->boots, 1);
  EXPECT_THROW(fx.guest->boot(), ContractViolation);
}

TEST(GuestVm, IdleGuestStillBurnsInstructions) {
  GuestFixture fx;
  fx.guest->boot();
  EXPECT_TRUE(fx.guest->is_idle());
  fx.run(100'000);
  EXPECT_EQ(fx.guest->instr(), 100'000u);
}

TEST(GuestVm, IdleChunkResetsAtEveryBoundary) {
  GuestFixture fx;
  fx.guest->boot();
  for (int i = 0; i < 1'000; ++i) {
    ASSERT_EQ(fx.guest->instr_to_boundary(), 20'000u) << "chunk " << i;
    ASSERT_TRUE(fx.guest->is_idle()) << "chunk " << i;
    fx.guest->advance(20'000);
  }
  EXPECT_EQ(fx.guest->instr(), 20'000'000u);
  EXPECT_EQ(fx.guest->instr_to_boundary(), 20'000u);
  EXPECT_TRUE(fx.guest->is_idle());
}

TEST(GuestVm, ComputeAtBoundaryDropsFreshIdleChunk) {
  GuestApi* api = nullptr;
  GuestFixture fx([&api](GuestApi& a) { api = &a; });
  fx.guest->boot();
  fx.run(3 * 20'000);  // three whole idle chunks: a fresh one is queued
  bool done = false;
  api->compute(700, [&done] { done = true; });
  EXPECT_FALSE(fx.guest->is_idle());
  EXPECT_EQ(fx.guest->instr_to_boundary(), 700u);
  fx.run(700);
  EXPECT_TRUE(done);
  EXPECT_TRUE(fx.guest->is_idle());
  EXPECT_EQ(fx.guest->instr_to_boundary(), 20'000u);
}

TEST(GuestVm, ComputeMidChunkKeepsPartialIdleChunk) {
  GuestApi* api = nullptr;
  GuestFixture fx([&api](GuestApi& a) { api = &a; });
  fx.guest->boot();
  fx.run(20'000 + 5'000);
  bool done = false;
  api->compute(700, [&done] { done = true; });
  EXPECT_FALSE(fx.guest->is_idle());
  EXPECT_EQ(fx.guest->instr_to_boundary(), 15'000u);  // idle chunk finishes
  fx.run(15'000 + 700);
  EXPECT_TRUE(done);
  EXPECT_TRUE(fx.guest->is_idle());
}

TEST(GuestVm, ComputeTaskCompletionFires) {
  bool done = false;
  GuestFixture fx([&done](GuestApi& api) {
    api.compute(50'000, [&done] { done = true; });
  });
  fx.guest->boot();
  fx.run(49'999);
  EXPECT_FALSE(done);
  fx.run(1);
  EXPECT_TRUE(done);
}

TEST(GuestVm, AdvancePastBoundaryRejected) {
  GuestFixture fx;
  fx.guest->boot();
  const auto b = fx.guest->instr_to_boundary();
  EXPECT_THROW(fx.guest->advance(b + 1), ContractViolation);
}

TEST(GuestVm, InjectedPacketHandlerRunsAfterHandlerCost) {
  GuestFixture fx;
  fx.guest->boot();
  fx.run(10'000);
  net::Packet pkt;
  pkt.seq = 7;
  fx.guest->inject_net_packet(pkt);
  fx.guest->commit_injections();
  EXPECT_TRUE(fx.program->packet_seqs.empty());
  fx.run(2'000);  // kIrqHandlerInstr
  ASSERT_EQ(fx.program->packet_seqs.size(), 1u);
  EXPECT_EQ(fx.program->packet_seqs[0], 7u);
}

TEST(GuestVm, InjectionOrderPreserved) {
  GuestFixture fx;
  fx.guest->boot();
  net::Packet a, b;
  a.seq = 1;
  b.seq = 2;
  fx.guest->inject_net_packet(a);
  fx.guest->inject_net_packet(b);
  fx.guest->commit_injections();
  fx.run(10'000);
  ASSERT_EQ(fx.program->packet_seqs.size(), 2u);
  EXPECT_EQ(fx.program->packet_seqs[0], 1u);
  EXPECT_EQ(fx.program->packet_seqs[1], 2u);
}

TEST(GuestVm, TimerTicksCounted) {
  GuestFixture fx;
  fx.guest->boot();
  fx.guest->inject_timer_tick();
  fx.guest->inject_timer_tick();
  fx.guest->commit_injections();
  fx.run(10'000);
  ASSERT_EQ(fx.program->ticks.size(), 2u);
  EXPECT_EQ(fx.program->ticks[0], 1u);
  EXPECT_EQ(fx.program->ticks[1], 2u);
  EXPECT_EQ(fx.guest->counters().timer_ticks, 2u);
}

TEST(GuestVm, DiskRequestEmitsIoOpAndCompletionFires) {
  bool disk_done = false;
  GuestFixture fx([&disk_done](GuestApi& api) {
    api.disk_read(4096, [&disk_done] { disk_done = true; });
  });
  fx.guest->boot();
  auto ops = fx.guest->drain_io_ops();
  ASSERT_EQ(ops.size(), 1u);
  const auto* rd = std::get_if<DiskReadOp>(&ops[0]);
  ASSERT_NE(rd, nullptr);
  EXPECT_EQ(rd->bytes, 4096u);

  fx.guest->inject_disk_complete(rd->request_id);
  fx.guest->commit_injections();
  fx.run(5'000);
  EXPECT_TRUE(disk_done);
  EXPECT_EQ(fx.guest->counters().disk_interrupts, 1u);
}

TEST(GuestVm, SendPacketStampsSourceAddress) {
  GuestFixture fx([](GuestApi& api) {
    net::Packet pkt;
    pkt.dst = NodeId{9};
    api.send_packet(pkt);
  });
  fx.guest->boot();
  auto ops = fx.guest->drain_io_ops();
  ASSERT_EQ(ops.size(), 1u);
  const auto* sp = std::get_if<SendPacketOp>(&ops[0]);
  ASSERT_NE(sp, nullptr);
  EXPECT_EQ(sp->pkt.src, (NodeId{42}));
}

TEST(GuestVm, VirtualTimersFireInOrder) {
  std::vector<int> fired;
  GuestFixture fx([&fired](GuestApi& api) {
    api.set_timer(Duration::micros(50), [&fired] { fired.push_back(2); });
    api.set_timer(Duration::micros(10), [&fired] { fired.push_back(1); });
  });
  fx.guest->boot();
  fx.run(5'000);  // virt +5us: nothing due
  fx.guest->fire_due_timers(fx.virt_ns);
  fx.guest->commit_injections();
  EXPECT_TRUE(fired.empty());

  fx.run(20'000);  // virt = 25us: first timer due
  fx.guest->fire_due_timers(fx.virt_ns);
  fx.guest->commit_injections();
  fx.run(2'000);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 1);

  fx.run(40'000);  // virt past 50us
  fx.guest->fire_due_timers(fx.virt_ns);
  fx.guest->commit_injections();
  fx.run(2'000);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[1], 2);
}

TEST(GuestVm, DeterministicRngIdenticalForSameSeed) {
  GuestFixture fx1, fx2;
  fx1.guest->boot();
  fx2.guest->boot();
  // Both guests constructed with det seed 99.
  auto& api1 = *fx1.program->api_;
  auto& api2 = *fx2.program->api_;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(api1.det_rng().next_u64(), api2.det_rng().next_u64());
  }
}

TEST(GuestVm, RdtscDerivesFromVirtualClock) {
  GuestFixture fx;
  fx.guest->boot();
  fx.virt_ns = 1'000'000;  // 1 ms
  EXPECT_EQ(fx.program->api_->rdtsc(), 3'000'000u);  // 3 GHz
  fx.virt_ns = 2'500'000'000;
  EXPECT_EQ(fx.program->api_->rtc_seconds(), 2u);
}

TEST(GuestVm, PitCounterCountsDownInVirtualTime) {
  GuestFixture fx;
  fx.guest->boot();
  fx.virt_ns = 0;
  const auto start = fx.program->api_->pit_counter();
  EXPECT_EQ(start, 4772u);  // full reload at virtual time zero
  fx.virt_ns = 1'000'000;   // +1 ms of virtual time = 1193 PIT ticks
  const auto later = fx.program->api_->pit_counter();
  EXPECT_EQ(later, 4772u - 1193u);
  // One full 4 ms period later the counter has wrapped to the same value.
  fx.virt_ns += 4'000'000;
  EXPECT_NEAR(static_cast<double>(fx.program->api_->pit_counter()),
              static_cast<double>(later), 2.0);
  // The counter is a pure function of virtual time: freezing virt freezes
  // it (this is what defeats its use as an independent clock).
  const auto frozen = fx.program->api_->pit_counter();
  fx.run(500'000);  // instructions advance...
  fx.virt_ns -= 500'000;  // ...but hold the fixture's virt constant
  EXPECT_EQ(fx.program->api_->pit_counter(), frozen);
}

}  // namespace
}  // namespace stopwatch::vm
