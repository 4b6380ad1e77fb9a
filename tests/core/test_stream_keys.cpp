// A driven VM's timing is a function of what it is, not of the registry
// around it: cold VMs registered after it (before or after activation),
// and the machine table's shard size, leave every reply time of a driven
// echo VM byte-identical. Every network node's random stream is keyed by
// its role and index, and a cold VM builds no node, so nothing about them
// reaches the jitter draws. (A VM's index is its identity — it keys its
// address node, slice streams and guest seed — so VMs registered before it
// make it a different VM.)
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/cloud.hpp"

namespace stopwatch::core {
namespace {

/// Echoes every request back to its sender.
class EchoProgram final : public vm::GuestProgram {
 public:
  void on_boot(vm::GuestApi&) override {}
  void on_timer_tick(vm::GuestApi&, std::uint64_t) override {}
  void on_packet(vm::GuestApi& api, const net::Packet& pkt) override {
    if (pkt.kind != net::PacketKind::kRequest) return;
    net::Packet reply;
    reply.dst = pkt.src;
    reply.kind = net::PacketKind::kData;
    reply.seq = pkt.seq;
    reply.size_bytes = 100;
    api.send_packet(reply);
  }
};

struct Registry {
  /// Cold VMs registered right after the echo VM, before the client.
  int cold_after{0};
  /// Cold VMs registered after activation, once the echo VM is wired.
  int cold_after_activation{0};
  int shard_size{64};
};

/// Reply times of an echo VM on machines {3, 4, 5} of a 6-machine
/// StopWatch cloud, driven with 20 requests; the cold VMs sit on the other
/// three machines and are never activated. With shard_size 3 only the echo
/// VM's machines are built; with 64 all six are.
std::vector<std::int64_t> echo_reply_times(const Registry& r) {
  CloudConfig cfg;
  cfg.seed = 5;
  cfg.policy = PolicyKind::kStopWatch;
  cfg.machine_count = 6;
  cfg.shard_size = r.shard_size;
  Cloud cloud(cfg);
  const auto echo = [] { return std::make_unique<EchoProgram>(); };
  const auto register_cold = [&](int count) {
    for (int i = 0; i < count; ++i) {
      static_cast<void>(
          cloud.add_vm("", echo, {i % 3, (i + 1) % 3, (i + 2) % 3}));
    }
  };
  const VmHandle vm = cloud.add_vm("echo", echo, {3, 4, 5});
  register_cold(r.cold_after);
  std::vector<std::int64_t> replies;
  const NodeId client = cloud.add_external_node(
      [&](const net::Packet&) { replies.push_back(cloud.simulator().now().ns); });
  cloud.activate({vm});
  register_cold(r.cold_after_activation);
  cloud.start();
  const NodeId addr = cloud.vm_addr(vm);
  for (int i = 0; i < 20; ++i) {
    cloud.simulator().schedule_at(
        RealTime::millis(25 * (i + 1)), [&cloud, client, addr, i] {
          net::Packet req;
          req.dst = addr;
          req.kind = net::PacketKind::kRequest;
          req.seq = static_cast<std::uint64_t>(i);
          req.size_bytes = 80;
          cloud.send_external(client, req);
        });
  }
  cloud.run_for(Duration::seconds(1));
  EXPECT_EQ(cloud.materialized_vm_count(), 1u);
  return replies;
}

TEST(StreamKeys, ColdVmsAndShardSizeLeaveReplyTimesAlone) {
  const std::vector<std::int64_t> alone = echo_reply_times({});
  ASSERT_EQ(alone.size(), 20u);
  for (const int cold : {1, 50}) {
    EXPECT_EQ(echo_reply_times({.cold_after = cold}), alone)
        << cold << " cold VMs registered after the echo VM";
    EXPECT_EQ(echo_reply_times({.cold_after_activation = cold}), alone)
        << cold << " cold VMs registered after activation";
  }
  EXPECT_EQ(echo_reply_times({.shard_size = 3}), alone) << "shard_size 3";
  EXPECT_EQ(echo_reply_times({.cold_after = 50, .shard_size = 3}), alone)
      << "50 cold VMs after, shard_size 3";
}

}  // namespace
}  // namespace stopwatch::core
