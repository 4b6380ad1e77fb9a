#include "net/multicast.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace stopwatch::net {
namespace {

/// Test fixture with three members wired like a replica VMM trio, routing
/// group frames through MulticastGroup::on_frame as the Cloud does.
struct TrioFixture {
  sim::ShardedSimulator kernel{{}};
  sim::Simulator& sim = kernel.shard(0);
  Network net{kernel, Rng(7)};
  MulticastGroup group{net, 1};
  std::vector<NodeId> members;
  // received[member] = list of (sender, proposal seq).
  std::map<std::uint32_t, std::vector<std::pair<std::uint32_t, std::uint64_t>>>
      received;

  explicit TrioFixture(LinkModel link = {}) {
    net.set_default_link(link);
    for (int i = 0; i < 3; ++i) members.push_back(net.reserve_node());
    for (const NodeId m : members) {
      net.bind_node(m, [this, m](const Frame& f) {
        if (f.rm_group == 1) group.on_frame(m, f);
      });
      group.add_member(m, [this, m](NodeId sender, const FramePayload& p) {
        if (const auto* prop = std::get_if<Proposal>(&p)) {
          received[m.value].push_back({sender.value, prop->copy_seq});
        }
      });
    }
  }

  void multicast(int member_idx, std::uint64_t copy_seq) {
    Proposal prop;
    prop.copy_seq = copy_seq;
    prop.proposer = MachineId{static_cast<std::uint32_t>(member_idx)};
    group.send(members[static_cast<std::size_t>(member_idx)], prop, 128);
  }
};

TEST(Multicast, AllMembersReceiveEveryMessage) {
  TrioFixture fx;
  fx.multicast(0, 100);
  fx.multicast(1, 100);
  fx.multicast(2, 100);
  fx.sim.run();
  for (const NodeId m : fx.members) {
    EXPECT_EQ(fx.received[m.value].size(), 3u) << "member " << m.value;
  }
}

TEST(Multicast, SelfDeliveryIsSynchronous) {
  TrioFixture fx;
  fx.multicast(0, 5);
  // Before running the simulator, member 0 already has its own message.
  ASSERT_EQ(fx.received[fx.members[0].value].size(), 1u);
  EXPECT_EQ(fx.received[fx.members[0].value][0].second, 5u);
}

TEST(Multicast, LossyLinksAreHealedByNaks) {
  LinkModel lossy;
  lossy.loss_probability = 0.3;
  lossy.base_latency = Duration::micros(200);
  TrioFixture fx(lossy);
  const int kMessages = 200;
  for (int i = 0; i < kMessages; ++i) {
    fx.multicast(0, static_cast<std::uint64_t>(i));
    fx.multicast(1, static_cast<std::uint64_t>(i));
  }
  fx.sim.run();
  // Every member must have all 2 * kMessages messages despite 30% loss.
  for (const NodeId m : fx.members) {
    EXPECT_EQ(fx.received[m.value].size(), 2u * kMessages)
        << "member " << m.value;
  }
  EXPECT_GT(fx.group.naks_sent(), 0u);
  EXPECT_GT(fx.group.retransmissions(), 0u);
}

TEST(Multicast, PerSenderOrderIsPreserved) {
  LinkModel lossy;
  lossy.loss_probability = 0.2;
  TrioFixture fx(lossy);
  for (int i = 0; i < 100; ++i) fx.multicast(1, static_cast<std::uint64_t>(i));
  fx.sim.run();
  // Receivers see sender 1's messages in sequence order.
  for (const NodeId m : fx.members) {
    const auto& msgs = fx.received[m.value];
    ASSERT_EQ(msgs.size(), 100u);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(msgs[i].second, i);
    }
  }
}

TEST(Multicast, DuplicateFramesIgnored) {
  TrioFixture fx;
  fx.multicast(0, 7);
  fx.sim.run();
  // Replay the same wire frame at member 1.
  Frame f;
  f.src = fx.members[0];
  f.dst = fx.members[1];
  f.rm_group = 1;
  f.rm_seq = 1;
  f.payload = Proposal{VmId{}, 7, VirtTime{}, MachineId{0}};
  fx.group.on_frame(fx.members[1], f);
  EXPECT_EQ(fx.received[fx.members[1].value].size(), 1u);
}

TEST(Multicast, NakRetransmitsOnlyInsideTransmitWindow) {
  TrioFixture fx;
  // A drop hook that never fires: the fabric may drop, so the sender keeps
  // its transmit window, yet every frame arrives.
  fx.net.set_drop_hook([](const Frame&) { return false; });
  // 4100 messages: the 4096-message window now holds sequences 5..4100.
  for (int i = 0; i < 4100; ++i) fx.multicast(0, static_cast<std::uint64_t>(i));
  fx.sim.run();
  ASSERT_EQ(fx.received[fx.members[1].value].size(), 4100u);
  // Jittered links reorder the burst, so some NAKs have already been served.
  const std::uint64_t base = fx.group.retransmissions();
  const auto nak = [&fx](std::uint64_t begin, std::uint64_t end) {
    Frame f;
    f.src = fx.members[1];
    f.dst = fx.members[0];
    f.rm_group = 1;
    f.payload = McastNak{1, fx.members[1], begin, end};
    fx.group.on_frame(fx.members[0], f);
    fx.sim.run();
  };
  nak(1, 6);  // 1..4 were evicted; only 5 is still held
  EXPECT_EQ(fx.group.retransmissions(), base + 1);
  nak(4098, 4105);  // 4098..4100 held; 4101.. never sent
  EXPECT_EQ(fx.group.retransmissions(), base + 4);
  // Retransmissions reach member 1 as duplicates and are dropped.
  EXPECT_EQ(fx.received[fx.members[1].value].size(), 4100u);
}

TEST(Multicast, LosslessGroupArmsNoTimers) {
  // Default links jitter but never drop, so the burst arrives reordered:
  // the stash alone restores order, and the only events are deliveries.
  TrioFixture fx;
  ASSERT_FALSE(fx.net.may_drop());
  const int kMessages = 200;
  for (int i = 0; i < kMessages; ++i) {
    fx.multicast(0, static_cast<std::uint64_t>(i));
  }
  fx.sim.run();
  for (std::size_t r = 1; r < fx.members.size(); ++r) {
    const auto& msgs = fx.received[fx.members[r].value];
    ASSERT_EQ(msgs.size(), static_cast<std::size_t>(kMessages));
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(msgs[i].second, i) << "receiver " << r;
    }
  }
  const std::uint64_t data_frames =
      fx.net.frames_sent_of_class(FramePayload{Proposal{}}.index());
  EXPECT_EQ(data_frames, 2u * kMessages);
  EXPECT_EQ(fx.sim.events_executed(), data_frames);
  EXPECT_EQ(fx.net.frames_sent_of_class(FramePayload{McastSpm{}}.index()), 0u);
  EXPECT_EQ(fx.net.frames_sent_of_class(FramePayload{McastNak{}}.index()), 0u);
  EXPECT_EQ(fx.group.naks_sent(), 0u);
  // Nor did the sender keep a retransmission copy: a NAK finds nothing.
  Frame nak;
  nak.src = fx.members[1];
  nak.dst = fx.members[0];
  nak.rm_group = 1;
  nak.payload = McastNak{1, fx.members[1], 1, kMessages + 1};
  fx.group.on_frame(fx.members[0], nak);
  EXPECT_EQ(fx.group.retransmissions(), 0u);
}

TEST(Multicast, RejectsUnknownMember) {
  TrioFixture fx;
  Frame f;
  f.rm_group = 1;
  EXPECT_THROW(fx.group.on_frame(NodeId{55}, f), ContractViolation);
}

}  // namespace
}  // namespace stopwatch::net
