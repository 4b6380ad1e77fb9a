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

/// A co-resident load source that never does anything. The machine cannot
/// plan it, so beside it every plan ends at its first exit: one event per
/// exit, while the guests' coresident load stays exactly what it would be
/// without it.
class IdleNeighbor final : public LoadSource {
 public:
  [[nodiscard]] double activity() const override { return 0.0; }
};

/// The simulator and machine the guests run on.
struct Host {
  sim::Simulator sim;
  Machine machine;
  IdleNeighbor neighbor;

  Host(const MachineConfig& mc, Duration clock_offset, bool idle_neighbor)
      : machine(MachineId{0}, sim, mc, clock_offset, Rng(5)) {
    if (idle_neighbor) machine.register_load_source(&neighbor);
  }
};

/// One guest on the host: its program, its context and what it sent.
struct Rig {
  VmId vm;
  RecorderProgram* program{nullptr};
  std::unique_ptr<GuestContext> ctx;
  std::vector<net::Proposal> own_proposals;
  std::vector<net::EpochReport> own_reports;
  std::vector<net::SyncBeacon> own_beacons;
  std::vector<net::Frame> frames_out;

  Rig(Host& host, const GuestContextConfig& cfg,
      std::function<void(vm::GuestApi&)> boot, VmId vm_id)
      : vm(vm_id) {
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
    ctx = std::make_unique<GuestContext>(vm, ReplicaIndex{0}, NodeId{50},
                                         host.machine, host.sim, cfg,
                                         std::move(prog), 777,
                                         SliceStreams::derive(5, vm.value, 0),
                                         svc);
  }

  void start() { ctx->start(VirtTime{}); }

  void feed_peer_proposal(std::uint64_t seq, std::int64_t virt_ns,
                          std::uint32_t machine_id) {
    net::Proposal p;
    p.vm = vm;
    p.copy_seq = seq;
    p.proposed_delivery = VirtTime{virt_ns};
    p.proposer = MachineId{machine_id};
    ctx->on_proposal(p);
  }

  void feed_ingress(std::uint64_t seq, std::uint64_t pkt_seq = 0) {
    net::IngressCopy copy;
    copy.vm = vm;
    copy.copy_seq = seq;
    copy.pkt.seq = pkt_seq;
    copy.pkt.size_bytes = 100;
    ctx->on_ingress_copy(copy);
  }
};

/// One guest alone on its machine (or beside an idle neighbor).
struct Harness : Host, Rig {
  explicit Harness(const GuestContextConfig& cfg,
                   std::function<void(vm::GuestApi&)> boot = nullptr,
                   const MachineConfig& mc = exact_machine(),
                   Duration clock_offset = Duration{},
                   bool idle_neighbor = false)
      : Host(mc, clock_offset, idle_neighbor),
        Rig(*this, cfg, std::move(boot), VmId{1}) {}
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
  std::uint64_t exits{0}, net{0}, disk{0}, ticks{0}, tunneled{0},
      median_passed{0}, disk_late{0}, epoch_missing{0}, stalls{0}, rebases{0};
  std::int64_t stall_ns{0};
  double activity{0.0};
  std::vector<double> spread_ms, margin_ms, disk_margin_ms;
  std::pair<std::uint64_t, std::uint64_t> outputs;  // hash chain, count
  std::vector<std::int64_t> tick_virt_ns, packet_virt_ns;
  std::vector<std::pair<std::int64_t, std::uint64_t>> beacons;  // virt, instr
  std::vector<std::pair<std::uint64_t, std::int64_t>> proposals;  // seq, virt
  bool operator==(const Snapshot&) const = default;
};

Snapshot snapshot(const Rig& r) {
  Snapshot s;
  s.instr = r.ctx->instr();
  s.virt_ns = r.ctx->virt_now().ns;
  const GuestContextStats& st = r.ctx->stats();
  s.exits = st.exits;
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
  s.activity = r.ctx->activity();
  s.spread_ms = st.proposal_spread_ms;
  s.margin_ms = st.median_margin_ms;
  s.disk_margin_ms = st.disk_margin_ms;
  s.outputs = r.ctx->output_signature();
  s.tick_virt_ns = r.program->tick_virt_ns;
  s.packet_virt_ns = r.program->packet_virt_ns;
  for (const net::SyncBeacon& b : r.own_beacons) {
    s.beacons.emplace_back(b.virt.ns, b.instr);
  }
  for (const net::Proposal& p : r.own_proposals) {
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

/// Bursts of `tasks` compute tasks of 730,000 instructions each, several
/// exits apiece, then 3.1 ms of idle guest time. Each burst starts with a
/// disk read, and each task ends with an output packet that carries the
/// instruction count.
void bursting(vm::GuestApi& api, int tasks = 6) {
  if (tasks == 6) api.disk_read(4096, [] {});
  api.compute(730'000, [&api, tasks] {
    net::Packet pkt;
    pkt.dst = NodeId{9};
    pkt.size_bytes = 100;
    pkt.seq = api.instructions();
    api.send_packet(pkt);
    if (tasks > 1) {
      bursting(api, tasks - 1);
    } else {
      api.set_timer(Duration::micros(3100), [&api] { bursting(api); });
    }
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

/// Two guests on one machine: `a` and `b` (VMs 1 and 2).
struct PairHarness : Host {
  Rig a;
  Rig b;

  PairHarness(const GuestContextConfig& cfg,
              std::function<void(vm::GuestApi&)> boot_a,
              std::function<void(vm::GuestApi&)> boot_b,
              const MachineConfig& mc, bool idle_neighbor)
      : Host(mc, kNoisyClockOffset, idle_neighbor),
        a(*this, cfg, std::move(boot_a), VmId{1}),
        b(*this, cfg, std::move(boot_b), VmId{2}) {}

  void start() {
    a.start();
    b.start();
  }
};

std::vector<Snapshot> snapshots(const Harness& h) { return {snapshot(h)}; }
std::vector<Snapshot> snapshots(const PairHarness& h) {
  return {snapshot(h.a), snapshot(h.b)};
}

/// Drives the same guests twice through the same inputs: on their own
/// machine (which plans spans) and beside an idle neighbor (every plan
/// one exit, so one event per exit), and checks that they agree at every
/// read.
template <typename H>
class SpanExactness {
 public:
  /// `make(idle_neighbor)` builds one of the two harnesses.
  explicit SpanExactness(
      const std::function<std::unique_ptr<H>(bool)>& make)
      : spans_(make(false)), reference_(make(true)) {
    spans_->start();
    reference_->start();
  }

  /// Schedules `op` on both harnesses as an ordinary event at `at`.
  void at(RealTime at, const std::function<void(H&)>& op) {
    for (H* h : {spans_.get(), reference_.get()}) {
      h->sim.schedule_at(at, [h, op] { op(*h); });
    }
  }

  /// The reference's next event time: with one exit per event, almost
  /// always an exit.
  RealTime next_exit() {
    return RealTime{reference_->sim.next_event_time_ns().value()};
  }

  /// Runs both to `t` and compares them.
  void check_at(RealTime t) {
    spans_->sim.run_until(t);
    reference_->sim.run_until(t);
    EXPECT_EQ(snapshots(*spans_), snapshots(*reference_))
        << "at " << t.ns << " ns";
    ++checks_;
  }

  /// Runs both to just before `t`, then runs the `n` ordinary events at
  /// `t` one step() at a time, comparing them before and after each step.
  void step_through(RealTime t, int n) {
    spans_->sim.run_until(RealTime{t.ns - 1});
    reference_->sim.run_until(RealTime{t.ns - 1});
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(snapshots(*spans_), snapshots(*reference_))
          << "before step " << i;
      for (H* h : {spans_.get(), reference_.get()}) {
        ASSERT_TRUE(h->sim.step());
        ASSERT_EQ(h->sim.now(), t);
      }
    }
    EXPECT_EQ(snapshots(*spans_), snapshots(*reference_)) << "after the steps";
    ++checks_;
  }

  /// Runs both to `t` without reading either.
  void run_unread(RealTime t) {
    spans_->sim.run_until(t);
    reference_->sim.run_until(t);
  }

  void finish() {
    EXPECT_GT(checks_, 20);
    // Spans really ran: the machine needed far fewer events.
    EXPECT_LT(spans_->sim.events_executed() * 4,
              reference_->sim.events_executed());
    std::uint64_t disk = 0;
    std::uint64_t net = 0;
    for (const Snapshot& s : snapshots(*spans_)) {
      disk += s.disk;
      net += s.net;
    }
    EXPECT_GT(disk, 0u);
    EXPECT_GT(net, 0u);
  }

  [[nodiscard]] const H& spans() const { return *spans_; }

 private:
  std::unique_ptr<H> spans_;
  std::unique_ptr<H> reference_;
  int checks_{0};
};

/// One guest with `boot` on the noisy machine.
SpanExactness<Harness> single(
    const GuestContextConfig& cfg,
    std::function<void(vm::GuestApi&)> boot = periodic_io) {
  return SpanExactness<Harness>([cfg, boot](bool idle_neighbor) {
    return std::make_unique<Harness>(cfg, boot, noisy_machine(),
                                     kNoisyClockOffset, idle_neighbor);
  });
}

template <typename H>
void check_many(SpanExactness<H>& x, std::int64_t from_us, std::int64_t to_us,
                std::int64_t step_us) {
  for (std::int64_t t = from_us; t <= to_us; t += step_us) x.check_at(us(t));
}

TEST(GuestContextSpans, StopWatchSpansMatchOneEventPerExit) {
  GuestContextConfig cfg = stopwatch_cfg();
  cfg.policy.stopwatch.max_replica_gap = Duration::millis(2);
  cfg.policy.stopwatch.epoch_resync = true;
  cfg.policy.stopwatch.epoch_instr = 9'000'000;
  auto x = single(cfg);
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
  const GuestContextStats& st = x.spans().ctx->stats();
  EXPECT_EQ(st.throttle_stalls, 1u);
  EXPECT_EQ(st.divergence_median_passed, 1u);
  EXPECT_GT(st.divergence_epoch_missing, 0u);  // epoch boundaries crossed
}

TEST(GuestContextSpans, BaselineSpansMatchOneEventPerExit) {
  GuestContextConfig cfg;
  cfg.policy = PolicyKind::kBaselineXen;
  cfg.replica_count = 1;
  auto x = single(cfg);
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
    auto x = single(cfg);
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
    EXPECT_EQ(x.spans().program->packet_seqs,
              (std::vector<std::uint64_t>{1, 2}));
  }
}

TEST(GuestContextSpans, BusyGuestSpansMatchOneEventPerExit) {
  GuestContextConfig baseline;
  baseline.policy = PolicyKind::kBaselineXen;
  baseline.replica_count = 1;
  for (const GuestContextConfig& cfg : {stopwatch_cfg(), baseline}) {
    const bool stopwatch = cfg.policy.kind == PolicyKind::kStopWatch;
    SCOPED_TRACE(stopwatch ? "StopWatch" : "baseline");
    // A packet, whose handler interrupts the compute task in progress.
    const auto packet = [stopwatch](std::uint64_t seq) {
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
      };
    };
    auto x = single(cfg, [](vm::GuestApi& api) { bursting(api); });
    check_many(x, 150, 3'000, 190);
    x.at(us(3'350), packet(1));
    x.at(us(5'420), [](Harness& h) { h.machine.set_extra_load(0.6); });
    check_many(x, 3'100, 9'000, 230);
    // Inputs on an exit's nanosecond, read between step() calls.
    const RealTime exit = x.next_exit();
    x.at(exit, packet(2));
    x.at(exit, [](Harness& h) { h.machine.set_extra_load(0.2); });
    x.step_through(exit, 2);
    x.at(us(11'900), packet(3));
    x.at(us(14'100), [](Harness& h) { h.machine.set_extra_load(0.0); });
    check_many(x, 9'100, 30'000, 310);
    x.finish();
    const Harness& h = x.spans();
    EXPECT_EQ(h.program->packet_seqs, (std::vector<std::uint64_t>{1, 2, 3}));
    // Busy exits ran quietly: far more exits than events.
    EXPECT_GT(h.ctx->stats().exits, 4 * h.sim.events_executed());
  }
}

/// An idle guest (a) beside a bursting one (b) on a jittered, contended,
/// preempting machine.
SpanExactness<PairHarness> coresident_pair(const GuestContextConfig& cfg,
                                           const MachineConfig& mc) {
  return SpanExactness<PairHarness>([cfg, mc](bool idle_neighbor) {
    return std::make_unique<PairHarness>(
        cfg, periodic_io, [](vm::GuestApi& api) { bursting(api); }, mc,
        idle_neighbor);
  });
}

/// Delivers packet `seq` to `r` through its own proposal (the median).
void deliver(Rig& r, std::uint64_t seq) {
  r.feed_ingress(seq, seq);
  r.feed_peer_proposal(seq, 0, 1);
  r.feed_peer_proposal(seq, Duration::seconds(1).ns, 2);
}

TEST(GuestContextSpans, CoresidentGuestsMatchOneEventPerExit) {
  GuestContextConfig cfg = stopwatch_cfg();
  cfg.policy.stopwatch.max_replica_gap = Duration::millis(2);
  auto x = coresident_pair(cfg, noisy_machine());
  check_many(x, 200, 4'000, 270);

  // A packet to each guest, one on an exit's nanosecond read between
  // step() calls, and a change of the coresident load.
  x.at(us(4'300), [](PairHarness& h) { deliver(h.a, 1); });
  const RealTime exit = x.next_exit();
  x.at(exit, [](PairHarness& h) { deliver(h.b, 1); });
  x.at(exit, [](PairHarness&) {});
  x.step_through(exit, 2);
  x.at(us(7'700), [](PairHarness& h) { h.machine.set_extra_load(0.5); });
  check_many(x, 4'400, 14'000, 330);

  // The busy guest's peer set completes and it stalls; later beacons
  // release it, while its neighbor keeps running.
  const auto peers_at = [](std::int64_t virt_ns) {
    return [virt_ns](PairHarness& h) {
      for (const std::uint32_t m : {1u, 2u}) {
        net::SyncBeacon b = peer_beacon(m, virt_ns);
        b.vm = h.b.vm;
        h.b.ctx->on_sync_beacon(b);
      }
    };
  };
  x.at(us(14'500), peers_at(Duration::millis(1).ns));
  x.at(us(21'000), peers_at(Duration::millis(90).ns));
  x.at(us(23'300), [](PairHarness& h) {
    h.machine.set_extra_load(0.0);
    deliver(h.a, 2);
  });
  check_many(x, 14'100, 40'000, 410);

  // Outside access to the busy guest's program, between runs.
  x.check_at(x.next_exit());
  x.at(x.next_exit(), [](PairHarness& h) {
    static_cast<void>(h.b.ctx->program());
  });
  check_many(x, 40'100, 46'000, 370);

  // The idle guest halts; the busy one runs on alone.
  x.at(us(46'300), [](PairHarness& h) { h.a.ctx->halt(); });
  check_many(x, 46'200, 60'000, 530);
  x.finish();

  const PairHarness& h = x.spans();
  EXPECT_EQ(h.b.ctx->stats().throttle_stalls, 1u);
  EXPECT_GT(h.b.ctx->activity(), 0.1);  // b ran busy: its load counted
  // One event covers at least ten exits of the two guests.
  EXPECT_GE(h.a.ctx->stats().exits + h.b.ctx->stats().exits,
            10 * h.sim.events_executed());
}

TEST(GuestContextSpans, SameNanosecondExitsMatchOneEventPerExit) {
  // Two identical bursting guests on a machine without jitter, contention
  // or preemption exit in lockstep: every exit ties with the neighbor's.
  // The Dom0 delay still reads their activity.
  MachineConfig mc = exact_machine();
  mc.vmm_load_delay = Duration::micros(600);
  const GuestContextConfig cfg = stopwatch_cfg();
  SpanExactness<PairHarness> x([cfg, mc](bool idle_neighbor) {
    const auto boot = [](vm::GuestApi& api) { bursting(api); };
    return std::make_unique<PairHarness>(cfg, boot, boot, mc, idle_neighbor);
  });
  check_many(x, 100, 3'000, 230);

  // Inputs to both on a tied exit's nanosecond, read between steps, and
  // after a run that ended there.
  RealTime exit = x.next_exit();
  x.at(exit, [](PairHarness& h) { h.a.feed_ingress(1, 1); });
  x.at(exit, [](PairHarness& h) { h.b.feed_ingress(1, 1); });
  x.step_through(exit, 2);
  x.at(us(3'400), [](PairHarness& h) {
    for (Rig* r : {&h.a, &h.b}) {
      r->feed_peer_proposal(1, 0, 1);
      r->feed_peer_proposal(1, Duration::seconds(1).ns, 2);
    }
  });
  check_many(x, 3'100, 9'000, 290);
  exit = x.next_exit();
  x.run_unread(exit);
  x.at(exit, [](PairHarness& h) { deliver(h.a, 2); });
  x.at(exit, [](PairHarness& h) { deliver(h.b, 2); });
  check_many(x, 9'100, 30'000, 470);
  x.finish();

  const PairHarness& h = x.spans();
  EXPECT_EQ(snapshot(h.a).virt_ns, snapshot(h.b).virt_ns);
  EXPECT_EQ(snapshot(h.a).exits, snapshot(h.b).exits);
  EXPECT_EQ(h.a.program->packet_seqs, (std::vector<std::uint64_t>{1, 2}));
}

}  // namespace
}  // namespace stopwatch::hypervisor
