// Direct tests of the VMM per-replica driver: clock virtualization, PIT
// injection, the network/disk device-model protocols, throttling, epoch
// resync, and the baseline-Xen emulation — against a hand-built harness
// with deterministic (jitter-free) machine parameters.
#include "hypervisor/guest_context.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "hypervisor/machine.hpp"
#include "sim/simulator.hpp"

namespace stopwatch::hypervisor {
namespace {

/// Guest program that records delivery timestamps via the guest clock.
class RecorderProgram final : public vm::GuestProgram {
 public:
  void on_boot(vm::GuestApi& api) override {
    api_ = &api;
    if (boot_action) boot_action(api);
  }
  void on_timer_tick(vm::GuestApi& api, std::uint64_t) override {
    tick_virt_ns.push_back(api.now().ns);
  }
  void on_packet(vm::GuestApi& api, const net::Packet& pkt) override {
    packet_virt_ns.push_back(api.now().ns);
    packet_seqs.push_back(pkt.seq);
  }

  std::function<void(vm::GuestApi&)> boot_action;
  vm::GuestApi* api_{nullptr};
  std::vector<std::int64_t> tick_virt_ns;
  std::vector<std::int64_t> packet_virt_ns;
  std::vector<std::uint64_t> packet_seqs;
};

MachineConfig exact_machine() {
  MachineConfig mc;
  mc.base_ips = 1e9;
  mc.ips_jitter_sigma = 0.0;
  mc.contention_alpha = 0.0;
  mc.exit_overhead = Duration{};
  mc.vmm_base_delay = Duration::micros(50);
  mc.vmm_load_delay = Duration{};
  mc.vmm_delay_jitter_sigma = 0.0;
  mc.disk_seek_min = Duration::millis(3);
  mc.disk_seek_max = Duration::millis(3);
  mc.preempt_wait = Duration{};
  return mc;
}

/// A co-resident load source that never does anything: beside it a guest
/// is not alone on its machine, so it plans spans of one exit, while its
/// coresident load stays exactly what it would be alone.
class IdleNeighbor final : public LoadSource {
 public:
  [[nodiscard]] double activity() const override { return 0.0; }
};

struct Harness {
  sim::Simulator sim;
  Machine machine;
  IdleNeighbor neighbor;
  RecorderProgram* program{nullptr};
  std::unique_ptr<GuestContext> ctx;
  std::vector<net::Proposal> own_proposals;
  std::vector<net::EpochReport> own_reports;
  std::vector<net::SyncBeacon> own_beacons;
  std::vector<net::Frame> frames_out;

  explicit Harness(GuestContextConfig cfg,
                   std::function<void(vm::GuestApi&)> boot = nullptr,
                   MachineConfig mc = exact_machine(),
                   Duration clock_offset = Duration{},
                   bool idle_neighbor = false)
      : machine(MachineId{0}, sim, mc, clock_offset, Rng(5)) {
    if (idle_neighbor) machine.register_load_source(&neighbor);
    auto prog = std::make_unique<RecorderProgram>();
    prog->boot_action = std::move(boot);
    program = prog.get();

    ReplicaServices svc;
    svc.machine_node = NodeId{100};
    svc.egress_node = NodeId{200};
    svc.send_frame = [this](net::Frame f) { frames_out.push_back(std::move(f)); };
    svc.control_multicast = [this](net::FramePayload payload, std::uint32_t) {
      // Synchronous self-delivery, as MulticastGroup provides.
      if (const auto* p = std::get_if<net::Proposal>(&payload)) {
        own_proposals.push_back(*p);
        ctx->on_proposal(*p);
      } else if (const auto* e = std::get_if<net::EpochReport>(&payload)) {
        own_reports.push_back(*e);
        ctx->on_epoch_report(*e);
      } else if (const auto* b = std::get_if<net::SyncBeacon>(&payload)) {
        own_beacons.push_back(*b);
        ctx->on_sync_beacon(*b);
      }
    };
    ctx = std::make_unique<GuestContext>(VmId{1}, ReplicaIndex{0}, NodeId{50},
                                         machine, sim, cfg, std::move(prog),
                                         777, SliceStreams::derive(5, 1, 0),
                                         svc);
  }

  void start() { ctx->start(VirtTime{}); }

  void feed_peer_proposal(std::uint64_t seq, std::int64_t virt_ns,
                          std::uint32_t machine_id) {
    net::Proposal p;
    p.vm = VmId{1};
    p.copy_seq = seq;
    p.proposed_delivery = VirtTime{virt_ns};
    p.proposer = MachineId{machine_id};
    ctx->on_proposal(p);
  }

  void feed_ingress(std::uint64_t seq, std::uint64_t pkt_seq = 0) {
    net::IngressCopy copy;
    copy.vm = VmId{1};
    copy.copy_seq = seq;
    copy.pkt.seq = pkt_seq;
    copy.pkt.size_bytes = 100;
    ctx->on_ingress_copy(copy);
  }
};

GuestContextConfig stopwatch_cfg() {
  GuestContextConfig cfg;
  cfg.policy = PolicyKind::kStopWatch;
  cfg.replica_count = 3;
  cfg.policy.stopwatch.delta_n = Duration::millis(10);
  cfg.policy.stopwatch.delta_d = Duration::millis(12);
  return cfg;
}

TEST(GuestContext, VirtualTimeTracksInstructionsExactly) {
  Harness h(stopwatch_cfg());
  h.start();
  h.sim.run_until(RealTime::millis(50));
  // base_ips 1e9 and slope 1.0 with zero overheads: virt == real.
  EXPECT_NEAR(static_cast<double>(h.ctx->virt_now().ns), 50e6, 2e5);
}

TEST(GuestContext, TimerTicksAt250HzVirtual) {
  Harness h(stopwatch_cfg());
  h.start();
  h.sim.run_until(RealTime::millis(100));
  // 250 Hz -> one tick per 4 ms -> ~25 ticks in 100 ms.
  ASSERT_GE(h.program->tick_virt_ns.size(), 23u);
  ASSERT_LE(h.program->tick_virt_ns.size(), 25u);
  // Tick k is handled just after virtual time (k+1) * 4 ms.
  for (std::size_t k = 0; k < h.program->tick_virt_ns.size(); ++k) {
    const double expected = 4e6 * static_cast<double>(k + 1);
    EXPECT_NEAR(static_cast<double>(h.program->tick_virt_ns[k]), expected,
                1.5e5)
        << "tick " << k;
  }
}

TEST(GuestContext, ProposalIsVirtAtLastExitPlusDeltaN) {
  Harness h(stopwatch_cfg());
  h.start();
  h.sim.run_until(RealTime::millis(20));
  h.feed_ingress(1);
  // Dom0 processing: 50 us with zero jitter/load.
  h.sim.run_until(RealTime::millis(21));
  ASSERT_EQ(h.own_proposals.size(), 1u);
  // Proposal = virt at last exit (~20.05 ms) + 10 ms.
  EXPECT_NEAR(static_cast<double>(h.own_proposals[0].proposed_delivery.ns),
              30.05e6, 2e5);
}

TEST(GuestContext, PacketDeliveredAtMedianProposal) {
  Harness h(stopwatch_cfg());
  h.start();
  h.sim.run_until(RealTime::millis(5));
  h.feed_ingress(1, /*pkt_seq=*/42);
  h.sim.run_until(RealTime::millis(6));  // our proposal goes out (~15 ms)
  // Peers propose 18 ms and 40 ms; median = 18 ms.
  h.feed_peer_proposal(1, 18'000'000, 1);
  h.feed_peer_proposal(1, 40'000'000, 2);
  h.sim.run_until(RealTime::millis(30));
  ASSERT_EQ(h.program->packet_seqs.size(), 1u);
  EXPECT_EQ(h.program->packet_seqs[0], 42u);
  // Delivered at the first exit past virt 18 ms (+ handler cost ~2 us).
  EXPECT_NEAR(static_cast<double>(h.program->packet_virt_ns[0]), 18.0e6, 2e5);
  EXPECT_EQ(h.ctx->stats().net_deliveries, 1u);
  EXPECT_EQ(h.ctx->stats().divergence_median_passed, 0u);
}

TEST(GuestContext, PacketsInjectedInIngressOrder) {
  Harness h(stopwatch_cfg());
  h.start();
  h.sim.run_until(RealTime::millis(5));
  h.feed_ingress(1, 10);
  h.feed_ingress(2, 20);
  h.sim.run_until(RealTime::millis(6));
  // Packet 2's median is EARLIER than packet 1's; order must still hold.
  h.feed_peer_proposal(1, 25'000'000, 1);
  h.feed_peer_proposal(1, 25'000'000, 2);
  h.feed_peer_proposal(2, 20'000'000, 1);
  h.feed_peer_proposal(2, 20'000'000, 2);
  h.sim.run_until(RealTime::millis(40));
  ASSERT_EQ(h.program->packet_seqs.size(), 2u);
  EXPECT_EQ(h.program->packet_seqs[0], 10u);
  EXPECT_EQ(h.program->packet_seqs[1], 20u);
  EXPECT_LE(h.program->packet_virt_ns[0], h.program->packet_virt_ns[1]);
}

TEST(GuestContext, MedianAlreadyPassedCountsDivergence) {
  Harness h(stopwatch_cfg());
  h.start();
  h.sim.run_until(RealTime::millis(20));
  h.feed_ingress(1);
  h.sim.run_until(RealTime::millis(21));
  // Peer proposals in the past (virt ~1 ms): median passed.
  h.feed_peer_proposal(1, 1'000'000, 1);
  h.feed_peer_proposal(1, 1'100'000, 2);
  h.sim.run_until(RealTime::millis(25));
  EXPECT_EQ(h.ctx->stats().divergence_median_passed, 1u);
  EXPECT_EQ(h.ctx->stats().net_deliveries, 1u);  // delivered ASAP
}

TEST(GuestContext, DiskDeliveredAtDeltaD) {
  GuestContextConfig cfg = stopwatch_cfg();
  std::vector<std::int64_t> completion_virt;
  Harness h(cfg, [&completion_virt](vm::GuestApi& api) {
    api.disk_read(4096, [&completion_virt, &api] {
      completion_virt.push_back(api.now().ns);
    });
  });
  h.start();
  h.sim.run_until(RealTime::millis(30));
  ASSERT_EQ(completion_virt.size(), 1u);
  // Request trapped at the first exit (~0.02-0.1 ms); delivery at +12 ms.
  EXPECT_NEAR(static_cast<double>(completion_virt[0]), 12.1e6, 3e5);
  EXPECT_EQ(h.ctx->stats().disk_deliveries, 1u);
  EXPECT_EQ(h.ctx->stats().divergence_disk_late, 0u);
}

TEST(GuestContext, DiskLateWhenDeltaDTooSmall) {
  GuestContextConfig cfg = stopwatch_cfg();
  cfg.policy.stopwatch.delta_d = Duration::millis(1);  // disk takes 3 ms seek
  Harness h(cfg, [](vm::GuestApi& api) { api.disk_read(4096, [] {}); });
  h.start();
  h.sim.run_until(RealTime::millis(30));
  EXPECT_EQ(h.ctx->stats().divergence_disk_late, 1u);
  EXPECT_EQ(h.ctx->stats().disk_deliveries, 1u);  // still deterministic
}

TEST(GuestContext, OutputsAreTunneledToEgress) {
  Harness h(stopwatch_cfg(), [](vm::GuestApi& api) {
    net::Packet pkt;
    pkt.dst = NodeId{9};
    pkt.size_bytes = 100;
    api.send_packet(pkt);
  });
  h.start();
  h.sim.run_until(RealTime::millis(1));
  ASSERT_EQ(h.frames_out.size(), 1u);
  EXPECT_EQ(h.frames_out[0].dst, (NodeId{200}));  // egress node
  const auto* t = std::get_if<net::TunneledOutput>(&h.frames_out[0].payload);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->out_seq, 1u);
  EXPECT_EQ(t->pkt.dst, (NodeId{9}));
  EXPECT_EQ(t->content_hash, t->pkt.content_hash());
}

TEST(GuestContext, BaselineSendsDirectlyAndUsesRealClock) {
  GuestContextConfig cfg;
  cfg.policy = PolicyKind::kBaselineXen;
  cfg.replica_count = 1;
  Harness h(cfg, [](vm::GuestApi& api) {
    net::Packet pkt;
    pkt.dst = NodeId{9};
    pkt.size_bytes = 100;
    api.send_packet(pkt);
  }, exact_machine(), Duration::millis(500));
  h.start();
  h.sim.run_until(RealTime::millis(10));
  ASSERT_EQ(h.frames_out.size(), 1u);
  EXPECT_EQ(h.frames_out[0].dst, (NodeId{9}));  // direct, no egress
  // Passthrough clock = machine-local real time (offset included).
  EXPECT_NEAR(static_cast<double>(h.ctx->virt_now().ns), 510e6, 1e5);
}

TEST(GuestContext, BaselineDeliversAfterProcessingDelay) {
  GuestContextConfig cfg;
  cfg.policy = PolicyKind::kBaselineXen;
  cfg.replica_count = 1;
  Harness h(cfg);
  h.start();
  h.sim.run_until(RealTime::millis(5));
  net::Packet pkt;
  pkt.seq = 3;
  pkt.size_bytes = 80;
  h.ctx->on_direct_packet(pkt);
  h.sim.run_until(RealTime::millis(8));
  ASSERT_EQ(h.program->packet_seqs.size(), 1u);
  // Delivery ~5 ms + 50 us Dom0 + exit quantization.
  EXPECT_NEAR(static_cast<double>(h.program->packet_virt_ns[0]), 5.05e6, 2e5);
}

TEST(GuestContext, ThrottleStallsFastestReplica) {
  GuestContextConfig cfg = stopwatch_cfg();
  cfg.policy.stopwatch.max_replica_gap = Duration::millis(2);
  Harness h(cfg);
  h.start();
  // Peers report virtual times far behind ours.
  net::SyncBeacon b1;
  b1.vm = VmId{1};
  b1.machine = MachineId{1};
  b1.virt = VirtTime::millis(1);
  net::SyncBeacon b2 = b1;
  b2.machine = MachineId{2};
  h.ctx->on_sync_beacon(b1);
  h.ctx->on_sync_beacon(b2);
  h.sim.run_until(RealTime::millis(20));
  // We must have stalled: virt stays near peers' + gap, well below 20 ms.
  EXPECT_GT(h.ctx->stats().throttle_stalls, 0u);
  EXPECT_LT(h.ctx->virt_now().ns, Duration::millis(5).ns);

  // Peers catch up -> we resume.
  b1.virt = VirtTime::millis(50);
  b2.virt = VirtTime::millis(50);
  h.ctx->on_sync_beacon(b1);
  h.ctx->on_sync_beacon(b2);
  h.sim.run_until(RealTime::millis(40));
  EXPECT_GT(h.ctx->virt_now().ns, Duration::millis(10).ns);
}

net::SyncBeacon peer_beacon(std::uint32_t machine, std::int64_t virt_ns) {
  net::SyncBeacon b;
  b.vm = VmId{1};
  b.machine = MachineId{machine};
  b.virt = VirtTime{virt_ns};
  return b;
}

TEST(GuestContext, StaleLowerBeaconDoesNotChangeThrottle) {
  GuestContextConfig cfg = stopwatch_cfg();
  cfg.policy.stopwatch.max_replica_gap = Duration::millis(2);
  Harness fresh(cfg);
  Harness stale(cfg);
  for (Harness* h : {&fresh, &stale}) {
    h->start();
    h->ctx->on_sync_beacon(peer_beacon(1, Duration::millis(50).ns));
    h->ctx->on_sync_beacon(peer_beacon(2, Duration::millis(30).ns));
    h->sim.run_until(RealTime::millis(10));
  }
  // Peer 1's older beacon arrives late: the peer is still known at 50 ms.
  stale.ctx->on_sync_beacon(peer_beacon(1, Duration::millis(1).ns));
  for (Harness* h : {&fresh, &stale}) h->sim.run_until(RealTime::millis(45));

  // Measured against 30 ms the replica would have stalled near 32 ms.
  EXPECT_EQ(stale.ctx->stats().throttle_stalls, 0u);
  EXPECT_GT(stale.ctx->virt_now().ns, Duration::millis(40).ns);
  EXPECT_EQ(stale.ctx->virt_now().ns, fresh.ctx->virt_now().ns);
  EXPECT_EQ(stale.sim.events_executed(), fresh.sim.events_executed());
}

TEST(GuestContext, NegativeFirstBeaconCountsAsZero) {
  GuestContextConfig cfg = stopwatch_cfg();
  cfg.policy.stopwatch.max_replica_gap = Duration::millis(2);
  Harness negative(cfg);
  Harness zero(cfg);
  negative.start();
  negative.ctx->on_sync_beacon(peer_beacon(1, -Duration::millis(5).ns));
  negative.ctx->on_sync_beacon(peer_beacon(2, -Duration::millis(5).ns));
  zero.start();
  zero.ctx->on_sync_beacon(peer_beacon(1, 0));
  zero.ctx->on_sync_beacon(peer_beacon(2, 0));

  // A peer's first beacon lands on a default-0 entry: the lead is measured
  // from 0, so nothing stalls before virt passes the 2 ms gap.
  negative.sim.run_until(RealTime::millis(1));
  EXPECT_EQ(negative.ctx->stats().throttle_stalls, 0u);
  negative.sim.run_until(RealTime::millis(20));
  zero.sim.run_until(RealTime::millis(20));
  EXPECT_GT(negative.ctx->stats().throttle_stalls, 0u);
  EXPECT_GT(negative.ctx->virt_now().ns, Duration::millis(2).ns);
  EXPECT_LT(negative.ctx->virt_now().ns, Duration::millis(3).ns);
  EXPECT_EQ(negative.ctx->virt_now().ns, zero.ctx->virt_now().ns);
  EXPECT_EQ(negative.ctx->stats().throttle_stalls,
            zero.ctx->stats().throttle_stalls);
}

TEST(GuestContext, EpochReportsEmittedAndClockRebased) {
  GuestContextConfig cfg = stopwatch_cfg();
  cfg.policy.stopwatch.epoch_resync = true;
  cfg.policy.stopwatch.epoch_instr = 10'000'000;  // 10 ms epochs
  cfg.policy.stopwatch.slope_min = 0.5;
  cfg.policy.stopwatch.slope_max = 2.0;
  Harness h(cfg);
  h.start();

  // Run in short phases, relaying our own reports as if the two peer
  // machines sent identical ones (identical hardware).
  std::size_t relayed = 0;
  for (int ms = 2; ms <= 80; ms += 2) {
    h.sim.run_until(RealTime::millis(ms));
    for (; relayed < h.own_reports.size(); ++relayed) {
      net::EpochReport r = h.own_reports[relayed];
      for (std::uint32_t m : {1u, 2u}) {
        r.machine = MachineId{m};
        h.ctx->on_epoch_report(r);
      }
    }
  }
  EXPECT_GE(h.own_reports.size(), 3u);
  EXPECT_GE(h.ctx->stats().epoch_rebase_count, 1u);
  // With identical machines the rebased slope stays ~1: virt ~ real.
  EXPECT_NEAR(static_cast<double>(h.ctx->virt_now().ns), 80e6, 2e6);
}

TEST(GuestContext, PacketTracesRecordProtocolTimeline) {
  GuestContextConfig cfg = stopwatch_cfg();
  cfg.record_packet_traces = true;
  Harness h(cfg);
  h.start();
  h.sim.run_until(RealTime::millis(5));
  h.feed_ingress(1, 9);
  h.sim.run_until(RealTime::millis(6));
  h.feed_peer_proposal(1, 17'000'000, 1);
  h.feed_peer_proposal(1, 19'000'000, 2);
  h.sim.run_until(RealTime::millis(30));
  ASSERT_EQ(h.ctx->stats().packet_traces.size(), 1u);
  const auto& tr = h.ctx->stats().packet_traces[0];
  EXPECT_EQ(tr.copy_seq, 1u);
  EXPECT_NEAR(tr.arrival_real_ms, 5.0, 0.1);
  EXPECT_EQ(tr.proposals_ms.size(), 3u);
  EXPECT_NEAR(tr.chosen_delivery_virt_ms, 17.0, 0.1);  // median of 15/17/19
  EXPECT_GE(tr.inject_virt_ms, tr.chosen_delivery_virt_ms);
}

// --- Spans: exactness against one event per exit ---

RealTime us(std::int64_t micros) { return RealTime::nanos(micros * 1'000); }

/// Everything a guest's run exposes, read through the public accessors.
struct Snapshot {
  std::uint64_t instr{0};
  std::int64_t virt_ns{0};
  std::uint64_t net{0}, disk{0}, ticks{0}, tunneled{0}, median_passed{0},
      disk_late{0}, epoch_missing{0}, stalls{0}, rebases{0};
  std::int64_t stall_ns{0};
  std::vector<double> spread_ms, margin_ms, disk_margin_ms;
  std::vector<std::uint64_t> hashes;
  std::vector<std::int64_t> tick_virt_ns, packet_virt_ns;
  std::vector<std::pair<std::int64_t, std::uint64_t>> beacons;  // virt, instr
  std::vector<std::pair<std::uint64_t, std::int64_t>> proposals;  // seq, virt
  bool operator==(const Snapshot&) const = default;
};

Snapshot snapshot(const Harness& h) {
  Snapshot s;
  s.instr = h.ctx->instr();
  s.virt_ns = h.ctx->virt_now().ns;
  const GuestContextStats& st = h.ctx->stats();
  s.net = st.net_deliveries;
  s.disk = st.disk_deliveries;
  s.ticks = st.timer_injections;
  s.tunneled = st.outputs_tunneled;
  s.median_passed = st.divergence_median_passed;
  s.disk_late = st.divergence_disk_late;
  s.epoch_missing = st.divergence_epoch_missing;
  s.stalls = st.throttle_stalls;
  s.rebases = st.epoch_rebase_count;
  s.stall_ns = st.total_stall_time.ns;
  s.spread_ms = st.proposal_spread_ms;
  s.margin_ms = st.median_margin_ms;
  s.disk_margin_ms = st.disk_margin_ms;
  s.hashes = h.ctx->output_hashes();
  s.tick_virt_ns = h.program->tick_virt_ns;
  s.packet_virt_ns = h.program->packet_virt_ns;
  for (const net::SyncBeacon& b : h.own_beacons) {
    s.beacons.emplace_back(b.virt.ns, b.instr);
  }
  for (const net::Proposal& p : h.own_proposals) {
    s.proposals.emplace_back(p.copy_seq, p.proposed_delivery.ns);
  }
  return s;
}

/// Every ~7.3 ms of guest time: a disk read and an output packet whose
/// contents carry the instruction count (so output hashes pin timing).
void periodic_io(vm::GuestApi& api) {
  api.set_timer(Duration::micros(7300), [&api] {
    api.disk_read(4096, [] {});
    net::Packet pkt;
    pkt.dst = NodeId{9};
    pkt.size_bytes = 100;
    pkt.seq = api.instructions();
    api.send_packet(pkt);
    periodic_io(api);
  });
}

/// A jittered, contended, preempting machine: every per-slice draw counts.
MachineConfig noisy_machine() {
  MachineConfig mc;
  mc.disk_seek_min = Duration::millis(2);
  mc.disk_seek_max = Duration::millis(5);
  mc.preempt_interval_instr = 3'000'000;
  return mc;
}
/// The noisy machine's clock offset (the guest clock must not depend on
/// it being zero).
constexpr Duration kNoisyClockOffset = Duration::micros(700);

/// Drives a guest alone on its machine (which runs spans) and the same
/// guest beside an idle neighbor (every span one exit) through the same
/// inputs, and checks that they agree at every read.
class SpanExactness {
 public:
  explicit SpanExactness(const GuestContextConfig& cfg)
      : alone_(cfg, periodic_io, noisy_machine(), kNoisyClockOffset),
        paired_(cfg, periodic_io, noisy_machine(), kNoisyClockOffset,
                /*idle_neighbor=*/true) {
    alone_.start();
    paired_.start();
  }

  /// Schedules `op` on both harnesses as an ordinary event at `at`.
  void at(RealTime at, const std::function<void(Harness&)>& op) {
    for (Harness* h : {&alone_, &paired_}) {
      h->sim.schedule_at(at, [h, op] { op(*h); });
    }
  }

  /// The paired guest's next event time: with one exit per event, almost
  /// always an exit.
  RealTime next_exit() {
    return RealTime{paired_.sim.next_event_time_ns().value()};
  }

  /// Runs both to `t` and compares them.
  void check_at(RealTime t) {
    alone_.sim.run_until(t);
    paired_.sim.run_until(t);
    EXPECT_EQ(snapshot(alone_), snapshot(paired_)) << "at " << t.ns << " ns";
    ++checks_;
  }

  /// Runs both to just before `t`, then runs the `n` ordinary events at
  /// `t` one step() at a time, comparing them before and after each step.
  void step_through(RealTime t, int n) {
    alone_.sim.run_until(RealTime{t.ns - 1});
    paired_.sim.run_until(RealTime{t.ns - 1});
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(snapshot(alone_), snapshot(paired_)) << "before step " << i;
      for (Harness* h : {&alone_, &paired_}) {
        ASSERT_TRUE(h->sim.step());
        ASSERT_EQ(h->sim.now(), t);
      }
    }
    EXPECT_EQ(snapshot(alone_), snapshot(paired_)) << "after the steps";
    ++checks_;
  }

  /// Runs both to `t` without reading either.
  void run_unread(RealTime t) {
    alone_.sim.run_until(t);
    paired_.sim.run_until(t);
  }

  void finish() {
    EXPECT_GT(checks_, 20);
    // Spans really ran: the lone guest needed far fewer events.
    EXPECT_LT(alone_.sim.events_executed() * 4,
              paired_.sim.events_executed());
    EXPECT_GT(snapshot(alone_).disk, 0u);
    EXPECT_GT(snapshot(alone_).net, 0u);
  }

  [[nodiscard]] const Harness& alone() const { return alone_; }

 private:
  Harness alone_;
  Harness paired_;
  int checks_{0};
};

void check_many(SpanExactness& x, std::int64_t from_us, std::int64_t to_us,
                std::int64_t step_us) {
  for (std::int64_t t = from_us; t <= to_us; t += step_us) x.check_at(us(t));
}

TEST(GuestContextSpans, StopWatchSpansMatchOneEventPerExit) {
  GuestContextConfig cfg = stopwatch_cfg();
  cfg.policy.stopwatch.max_replica_gap = Duration::millis(2);
  cfg.policy.stopwatch.epoch_resync = true;
  cfg.policy.stopwatch.epoch_instr = 9'000'000;
  SpanExactness x(cfg);
  check_many(x, 300, 3'000, 370);

  // An ingress copy in the middle of a span, then one on an exit's
  // nanosecond, read with a run_until that ends exactly on an exit.
  x.at(us(4'100), [](Harness& h) { h.feed_ingress(1, 11); });
  x.check_at(us(5'000));
  const RealTime exit = x.next_exit();
  x.at(exit, [](Harness& h) { h.feed_ingress(2, 22); });
  x.check_at(exit);
  x.check_at(x.next_exit());

  // Proposals that complete both deliveries, the first with a median
  // that already passed: it is due at the next exit.
  x.at(us(6'300), [](Harness& h) {
    h.feed_peer_proposal(1, 1'000'000, 1);
    h.feed_peer_proposal(1, 2'000'000, 2);
    h.feed_peer_proposal(2, 12'000'000, 1);
    h.feed_peer_proposal(2, 13'000'000, 2);
  });
  // Coresident load appears: preemption draws start.
  x.at(us(8'200), [](Harness& h) { h.machine.set_extra_load(0.6); });
  check_many(x, 6'000, 16'000, 430);

  // Beacons: the second completes the peer set and starts the throttle;
  // later ones release it.
  x.at(us(16'500), [](Harness& h) {
    h.ctx->on_sync_beacon(peer_beacon(1, Duration::millis(2).ns));
  });
  x.at(us(19'100), [](Harness& h) {
    h.ctx->on_sync_beacon(peer_beacon(2, Duration::millis(1).ns));
  });
  x.at(us(24'000), [](Harness& h) {
    h.ctx->on_sync_beacon(peer_beacon(1, Duration::millis(90).ns));
    h.ctx->on_sync_beacon(peer_beacon(2, Duration::millis(90).ns));
  });
  x.at(us(26'000), [](Harness& h) { h.machine.set_extra_load(0.0); });
  check_many(x, 16'000, 40'000, 290);

  // Between runs, too: an input outside any callback.
  x.check_at(x.next_exit());
  x.at(x.next_exit(), [](Harness& h) { h.machine.set_extra_load(0.3); });
  check_many(x, 40'100, 52'000, 1'130);

  x.at(us(52'700), [](Harness& h) { h.ctx->halt(); });
  check_many(x, 52'400, 56'000, 600);
  x.finish();
  const GuestContextStats& st = x.alone().ctx->stats();
  EXPECT_EQ(st.throttle_stalls, 1u);
  EXPECT_EQ(st.divergence_median_passed, 1u);
  EXPECT_GT(st.divergence_epoch_missing, 0u);  // epoch boundaries crossed
}

TEST(GuestContextSpans, BaselineSpansMatchOneEventPerExit) {
  GuestContextConfig cfg;
  cfg.policy = PolicyKind::kBaselineXen;
  cfg.replica_count = 1;
  SpanExactness x(cfg);
  check_many(x, 300, 5'000, 410);
  const auto direct = [](std::uint64_t seq) {
    return [seq](Harness& h) {
      net::Packet pkt;
      pkt.seq = seq;
      pkt.size_bytes = 80;
      h.ctx->on_direct_packet(pkt);
    };
  };
  x.at(us(5'500), direct(1));
  const RealTime exit = x.next_exit();
  x.at(exit, direct(2));
  x.check_at(exit);
  x.at(us(9'100), [](Harness& h) { h.machine.set_extra_load(0.8); });
  check_many(x, 6'000, 30'000, 530);
  x.at(us(30'900), direct(3));
  x.at(us(31'000), [](Harness& h) { h.machine.set_extra_load(0.0); });
  check_many(x, 30'500, 45'000, 710);
  x.at(us(45'300), [](Harness& h) { h.ctx->halt(); });
  check_many(x, 45'100, 48'000, 700);
  x.finish();
}

TEST(GuestContextSpans, ReadsAtAnExitInstantMatchOneEventPerExit) {
  GuestContextConfig baseline;
  baseline.policy = PolicyKind::kBaselineXen;
  baseline.replica_count = 1;
  for (const GuestContextConfig& cfg : {stopwatch_cfg(), baseline}) {
    const bool stopwatch = cfg.policy.kind == PolicyKind::kStopWatch;
    SCOPED_TRACE(stopwatch ? "StopWatch" : "baseline");
    // A packet (an ingress copy whose median is the own proposal under
    // StopWatch, a direct packet under baseline Xen) and a change of the
    // coresident load, which the slice starting at the next exit sees.
    const auto input = [stopwatch](std::uint64_t seq) {
      return [stopwatch, seq](Harness& h) {
        if (stopwatch) {
          h.feed_ingress(seq, seq);
          h.feed_peer_proposal(seq, 0, 1);
          h.feed_peer_proposal(seq, Duration::seconds(1).ns, 2);
        } else {
          net::Packet pkt;
          pkt.seq = seq;
          pkt.size_bytes = 80;
          h.ctx->on_direct_packet(pkt);
        }
        h.machine.set_extra_load(0.3 * static_cast<double>(seq));
      };
    };
    SpanExactness x(cfg);
    check_many(x, 300, 2'000, 370);

    // Two ordinary events on an exit's nanosecond, read between step()
    // calls: the exit there still belongs after the input.
    RealTime exit = x.next_exit();
    x.at(exit, [](Harness&) {});
    x.at(exit, input(1));
    x.step_through(exit, 2);
    check_many(x, 2'100, 9'000, 530);

    // An input scheduled on an exit's nanosecond after a run ended there,
    // with no read between: the exit there has already run.
    exit = x.next_exit();
    x.run_unread(exit);
    x.at(exit, input(2));
    check_many(x, 9'100, 60'000, 610);
    x.finish();
    EXPECT_EQ(x.alone().program->packet_seqs,
              (std::vector<std::uint64_t>{1, 2}));
  }
}

}  // namespace
}  // namespace stopwatch::hypervisor
