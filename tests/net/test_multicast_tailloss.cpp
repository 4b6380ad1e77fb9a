// Regression tests for the PGM-style tail-loss machinery: NAKs alone
// cannot detect the loss of a stream's *final* messages — the SPM
// advertisement path must recover them (paper Sec. VII-A relies on every
// proposal reaching every VMM).
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "net/multicast.hpp"

namespace stopwatch::net {
namespace {

struct Pair {
  sim::ShardedSimulator kernel{{}};
  sim::Simulator& sim = kernel.shard(0);
  Network net{kernel, Rng(17)};
  MulticastGroup group{net, 2};
  NodeId sender{}, receiver{};
  std::vector<std::uint64_t> delivered;
  // Frames matching this predicate are dropped exactly once.
  std::function<bool(const Frame&)> drop_once;
  bool dropped{false};

  Pair() {
    sender = net.reserve_node();
    receiver = net.reserve_node();
    net.bind_node(sender, [this](const Frame& f) {
      if (f.rm_group == 2) group.on_frame(sender, f);
    });
    net.bind_node(receiver, [this](const Frame& f) {
      if (f.rm_group == 2) group.on_frame(receiver, f);
    });
    // Swallowed by the network: the fabric's drop hook, so the group sees
    // a fabric that can lose frames and arms its SPM and NAK timers.
    net.set_drop_hook([this](const Frame& f) { return drops(f); });
    group.add_member(sender, [](NodeId, const FramePayload&) {});
    group.add_member(receiver, [this](NodeId, const FramePayload& p) {
      if (const auto* prop = std::get_if<Proposal>(&p)) {
        delivered.push_back(prop->copy_seq);
      }
    });
  }

  bool drops(const Frame& f) {
    if (!drop_once || dropped || !drop_once(f)) return false;
    dropped = true;
    return true;
  }

  void send(std::uint64_t seq) {
    Proposal prop;
    prop.copy_seq = seq;
    group.send(sender, prop, 96);
  }
};

TEST(MulticastTailLoss, LastMessageLossRecoveredViaSpm) {
  Pair p;
  // Drop the data frame carrying rm_seq 3 (the final message).
  p.drop_once = [](const Frame& f) {
    return f.rm_seq == 3 && std::holds_alternative<Proposal>(f.payload);
  };
  p.send(10);
  p.send(11);
  p.send(12);  // lost on the wire; no further data follows
  p.sim.run();
  ASSERT_EQ(p.delivered.size(), 3u);
  EXPECT_EQ(p.delivered[2], 12u);
  EXPECT_GT(p.group.naks_sent(), 0u);
  EXPECT_EQ(p.group.retransmissions(), 1u);
}

TEST(MulticastTailLoss, SoleMessageLossRecovered) {
  Pair p;
  p.drop_once = [](const Frame& f) {
    return std::holds_alternative<Proposal>(f.payload);
  };
  p.send(42);  // the only message, and it is lost
  p.sim.run();
  ASSERT_EQ(p.delivered.size(), 1u);
  EXPECT_EQ(p.delivered[0], 42u);
}

TEST(MulticastTailLoss, LostNakIsRetried) {
  Pair p;
  bool nak_dropped = false;
  p.drop_once = [&nak_dropped](const Frame& f) {
    if (std::holds_alternative<Proposal>(f.payload) && f.rm_seq == 2) {
      return true;  // lose the data...
    }
    return false;
  };
  // ...and additionally lose the first NAK on the reverse path.
  p.net.set_drop_hook([&p, &nak_dropped](const Frame& f) {
    if (!nak_dropped && std::holds_alternative<McastNak>(f.payload)) {
      nak_dropped = true;
      return true;
    }
    return p.drops(f);
  });
  p.send(1);
  p.send(2);
  p.sim.run();
  ASSERT_EQ(p.delivered.size(), 2u);
  EXPECT_GE(p.group.naks_sent(), 2u);  // first lost, second succeeded
}

TEST(MulticastTailLoss, NoSpuriousNaksOnCleanStream) {
  Pair p;
  for (std::uint64_t i = 0; i < 50; ++i) p.send(i);
  p.sim.run();
  EXPECT_EQ(p.delivered.size(), 50u);
  EXPECT_EQ(p.group.naks_sent(), 0u);
  EXPECT_EQ(p.group.retransmissions(), 0u);
}

}  // namespace
}  // namespace stopwatch::net
