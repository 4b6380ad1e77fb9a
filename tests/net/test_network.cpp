#include "net/network.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace stopwatch::net {
namespace {

struct Fixture {
  sim::ShardedSimulator kernel{{}};
  sim::Simulator& sim = kernel.shard(0);
  Network net{kernel, Rng(1234)};
};

Frame guest_frame(NodeId src, NodeId dst, std::uint32_t bytes) {
  Frame f;
  f.src = src;
  f.dst = dst;
  f.size_bytes = bytes;
  Packet p;
  p.src = src;
  p.dst = dst;
  p.size_bytes = bytes;
  f.payload = GuestPacketPayload{p};
  return f;
}

TEST(Network, DeliversFrameToHandler) {
  Fixture fx;
  int received = 0;
  const NodeId a = fx.net.add_node(0, [](const Frame&) {});
  const NodeId b = fx.net.add_node(1, [&](const Frame& f) {
    ++received;
    EXPECT_EQ(f.src, a);
  });
  fx.net.send(guest_frame(a, b, 100));
  fx.sim.run();
  EXPECT_EQ(received, 1);
}

TEST(Network, LatencyIsAtLeastBasePlusSerialization) {
  Fixture fx;
  RealTime arrival{};
  const NodeId a = fx.net.add_node(0, [](const Frame&) {});
  const NodeId b =
      fx.net.add_node(1, [&](const Frame&) { arrival = fx.sim.now(); });
  LinkModel lm;
  lm.base_latency = Duration::millis(5);
  lm.jitter_sigma = 0.0;
  lm.bytes_per_second = 1e6;  // 1 MB/s -> 1000 bytes = 1 ms
  fx.net.set_default_link(lm);
  fx.net.send(guest_frame(a, b, 1000));
  fx.sim.run();
  EXPECT_EQ(arrival.ns, Duration::millis(6).ns);
}

TEST(Network, SerializationQueuesBackToBack) {
  Fixture fx;
  std::vector<RealTime> arrivals;
  const NodeId a = fx.net.add_node(0, [](const Frame&) {});
  const NodeId b = fx.net.add_node(
      1, [&](const Frame&) { arrivals.push_back(fx.sim.now()); });
  LinkModel lm;
  lm.base_latency = Duration::millis(1);
  lm.jitter_sigma = 0.0;
  lm.bytes_per_second = 1e6;
  fx.net.set_default_link(lm);
  // Two 1000-byte frames sent at t=0 serialize at 1 ms each.
  fx.net.send(guest_frame(a, b, 1000));
  fx.net.send(guest_frame(a, b, 1000));
  fx.sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0].ns, Duration::millis(2).ns);
  EXPECT_EQ(arrivals[1].ns, Duration::millis(3).ns);
}

TEST(Network, LossDropsFrames) {
  Fixture fx;
  int received = 0;
  const NodeId a = fx.net.add_node(0, [](const Frame&) {});
  const NodeId b = fx.net.add_node(1, [&](const Frame&) { ++received; });
  LinkModel lm;
  lm.loss_probability = 1.0;
  fx.net.set_default_link(lm);
  EXPECT_FALSE(fx.net.send(guest_frame(a, b, 100)));
  fx.sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(fx.net.frames_dropped(), 1u);
}

TEST(Network, PerDirectionLinksAreIndependent) {
  Fixture fx;
  RealTime ab{}, ba{};
  NodeId a{}, b{};
  a = fx.net.add_node(0, [&](const Frame&) { ba = fx.sim.now(); });
  b = fx.net.add_node(1, [&](const Frame&) { ab = fx.sim.now(); });
  LinkModel fast;
  fast.base_latency = Duration::micros(10);
  fast.jitter_sigma = 0.0;
  fast.bytes_per_second = 1e12;
  LinkModel slow = fast;
  slow.base_latency = Duration::millis(10);
  // Each direction resolves to its source node's link.
  fx.net.set_node_link(a, fast);
  fx.net.set_node_link(b, slow);
  fx.net.send(guest_frame(a, b, 10));
  fx.net.send(guest_frame(b, a, 10));
  fx.sim.run();
  EXPECT_LT(ab.ns, Duration::millis(1).ns);
  EXPECT_GE(ba.ns, Duration::millis(10).ns);
}

TEST(Network, PacketContentHashDiscriminates) {
  Packet p1, p2;
  p1.seq = 1;
  p2.seq = 2;
  EXPECT_NE(p1.content_hash(), p2.content_hash());
  p2.seq = 1;
  EXPECT_EQ(p1.content_hash(), p2.content_hash());
}

TEST(Network, UnknownNodeRejected) {
  Fixture fx;
  const NodeId a = fx.net.add_node(0, [](const Frame&) {});
  Frame f = guest_frame(a, NodeId{99}, 10);
  EXPECT_THROW(fx.net.send(f), ContractViolation);
}

TEST(Network, NodeLinkAppliesToAllTrafficOfANode) {
  // One set_node_link entry must model a slow client against every peer —
  // the O(1) alternative to per-pair links against each of Θ(n²) VMs.
  Fixture fx;
  RealTime to_client{}, to_peer{}, from_client{};
  const NodeId client =
      fx.net.add_node(0, [&](const Frame&) { to_client = fx.sim.now(); });
  const NodeId a =
      fx.net.add_node(1, [&](const Frame&) { from_client = fx.sim.now(); });
  const NodeId b =
      fx.net.add_node(2, [&](const Frame&) { to_peer = fx.sim.now(); });
  LinkModel fast;
  fast.base_latency = Duration::micros(10);
  fast.jitter_sigma = 0.0;
  fast.bytes_per_second = 1e12;
  fx.net.set_default_link(fast);
  LinkModel slow = fast;
  slow.base_latency = Duration::millis(20);
  fx.net.set_node_link(client, slow);

  fx.net.send(guest_frame(a, client, 10));  // dst-node link applies
  fx.net.send(guest_frame(client, a, 10));  // src-node link applies
  fx.net.send(guest_frame(a, b, 10));       // untouched pair stays fast
  fx.sim.run();
  EXPECT_GE(to_client.ns, Duration::millis(20).ns);
  EXPECT_GE(from_client.ns, Duration::millis(20).ns);
  EXPECT_LT(to_peer.ns, Duration::millis(1).ns);
}

TEST(Network, MayDropFollowsLossyLinksAndDropHook) {
  LinkModel lossless;
  LinkModel lossy;
  lossy.loss_probability = 0.01;
  {
    Fixture fx;
    const NodeId a = fx.net.add_node(0, [](const Frame&) {});
    const NodeId b = fx.net.add_node(1, [](const Frame&) {});
    EXPECT_FALSE(fx.net.may_drop());
    fx.net.set_node_link(a, lossless);
    fx.net.set_default_link(lossless);
    EXPECT_FALSE(fx.net.may_drop());
    fx.net.set_node_link(b, lossy);
    EXPECT_TRUE(fx.net.may_drop());
    fx.net.set_node_link(b, lossless);  // sticky: never reverts
    EXPECT_TRUE(fx.net.may_drop());
  }
  {
    Fixture fx;
    const NodeId a = fx.net.add_node(0, [](const Frame&) {});
    fx.net.set_node_link(a, lossy);
    EXPECT_TRUE(fx.net.may_drop());
  }
  {
    Fixture fx;
    fx.net.set_default_link(lossy);
    EXPECT_TRUE(fx.net.may_drop());
  }
  {
    Fixture fx;
    fx.net.set_drop_hook(nullptr);
    EXPECT_FALSE(fx.net.may_drop());
    fx.net.set_drop_hook([](const Frame&) { return false; });
    EXPECT_TRUE(fx.net.may_drop());
  }
}

TEST(Network, LossAfterFirstSendIsRejected) {
  // Frames sent on a lossless fabric keep no retransmission copy, so no
  // loss may appear behind them: may_drop() is final from the first send.
  Fixture fx;
  const NodeId a = fx.net.add_node(0, [](const Frame&) {});
  const NodeId b = fx.net.add_node(1, [](const Frame&) {});
  LinkModel lossy;
  lossy.loss_probability = 0.01;
  fx.net.send(guest_frame(a, b, 100));
  EXPECT_THROW(fx.net.set_default_link(lossy), ContractViolation);
  EXPECT_THROW(fx.net.set_node_link(a, lossy), ContractViolation);
  EXPECT_THROW(fx.net.set_drop_hook([](const Frame&) { return false; }),
               ContractViolation);
  EXPECT_FALSE(fx.net.may_drop());
  // Lossless links may still change after the first send.
  LinkModel slow;
  slow.base_latency = Duration::millis(2);
  fx.net.set_node_link(b, slow);
  fx.net.set_drop_hook(nullptr);
  fx.sim.run();
  EXPECT_FALSE(fx.net.may_drop());
}

TEST(Network, DropHookDropsBeforeDrawAndUplink) {
  // A hooked drop is counted like a loss but takes no RNG draw and no
  // serialization time: the frame behind it arrives exactly as if the
  // dropped one had never been offered.
  const auto second_arrival = [](bool drop_first) {
    Fixture fx;
    RealTime arrival{};
    int received = 0;
    const NodeId a = fx.net.add_node(0, [](const Frame&) {});
    const NodeId b = fx.net.add_node(1, [&](const Frame&) {
      arrival = fx.sim.now();
      ++received;
    });
    LinkModel lm;
    lm.bytes_per_second = 1e6;  // 1000 bytes = 1 ms on the uplink
    fx.net.set_default_link(lm);
    fx.net.set_drop_hook([](const Frame& f) { return f.size_bytes == 1000; });
    if (drop_first) {
      EXPECT_FALSE(fx.net.send(guest_frame(a, b, 1000)));
    }
    EXPECT_TRUE(fx.net.send(guest_frame(a, b, 100)));
    fx.sim.run();
    EXPECT_EQ(fx.net.frames_dropped(), drop_first ? 1u : 0u);
    EXPECT_EQ(received, 1);
    return arrival;
  };
  EXPECT_EQ(second_arrival(true).ns, second_arrival(false).ns);
}

TEST(Network, CrossOwnerFrameGoesThroughTheLaneAtTheSameInstant) {
  // A frame between owners crosses through the kernel's merge lane and
  // must land at the nanosecond it lands at when both nodes share the
  // only core: the jitter draw belongs to the sending node, not to the
  // route.
  struct Outcome {
    std::int64_t arrival_ns{-1};
    std::uint64_t crossed{0};
  };
  const auto deliver = [](int shards) {
    // The default link's floor (~55 us) is below the kernel's default
    // window, so it bounds the undeclared pairs.
    sim::ShardedConfig cfg;
    cfg.shards = shards;
    cfg.window = LinkModel{}.min_latency();
    sim::ShardedSimulator kernel{cfg};
    Network net{kernel, Rng(1234)};
    Outcome out;
    const NodeId a = net.add_node(0, [](const Frame&) {});
    const NodeId b = net.add_node(1, [&](const Frame&) {
      out.arrival_ns = kernel.shard(shards - 1).now().ns;
    });
    net.set_node_owner(b, shards - 1);
    kernel.shard(0).schedule_at(RealTime::nanos(10'000), [&] {
      EXPECT_TRUE(net.send(guest_frame(a, b, 1500)));
    });
    kernel.run_until(RealTime::millis(5));
    out.crossed = kernel.cross_scheduled();
    return out;
  };
  const Outcome local = deliver(1);
  const Outcome crossed = deliver(2);
  ASSERT_GT(local.arrival_ns, 0);
  EXPECT_EQ(crossed.arrival_ns, local.arrival_ns);
  EXPECT_EQ(local.crossed, 0u);
  EXPECT_EQ(crossed.crossed, 1u);
}

TEST(Network, ArrivalsDependOnlyOnTheStreamKey) {
  // A node's jitter stream is forked by its stream key, not by its NodeId:
  // the same keyed nodes added in another order, after an unrelated node,
  // see every frame land at the same nanosecond.
  const auto arrivals = [](bool reversed) {
    Fixture fx;
    std::vector<std::int64_t> out;
    const auto sink = [&](const Frame&) { out.push_back(fx.sim.now().ns); };
    NodeId sender;
    NodeId sinks[2];
    if (reversed) {
      static_cast<void>(fx.net.add_node(99, [](const Frame&) {}));
      sinks[1] = fx.net.add_node(node_key(NodeRole::kMachine, 1), sink);
      sender = fx.net.add_node(node_key(NodeRole::kEgress, 0),
                               [](const Frame&) {});
      sinks[0] = fx.net.add_node(node_key(NodeRole::kMachine, 0), sink);
    } else {
      sender = fx.net.add_node(node_key(NodeRole::kEgress, 0),
                               [](const Frame&) {});
      sinks[0] = fx.net.add_node(node_key(NodeRole::kMachine, 0), sink);
      sinks[1] = fx.net.add_node(node_key(NodeRole::kMachine, 1), sink);
    }
    EXPECT_EQ(fx.net.node_count(), reversed ? 4u : 3u);
    for (int i = 0; i < 8; ++i) {
      fx.sim.schedule_at(RealTime::millis(i), [&fx, &sinks, sender, i] {
        fx.net.send(guest_frame(sender, sinks[i % 2], 200));
      });
    }
    fx.sim.run();
    return out;
  };
  const std::vector<std::int64_t> in_order = arrivals(false);
  ASSERT_EQ(in_order.size(), 8u);
  EXPECT_EQ(arrivals(true), in_order);
}

TEST(Network, ReusedStreamKeyIsRejected) {
  Fixture fx;
  const std::uint64_t key = node_key(NodeRole::kVmAddress, 7);
  static_cast<void>(fx.net.add_node(key, [](const Frame&) {}));
  try {
    static_cast<void>(fx.net.add_node(key, [](const Frame&) {}));
    FAIL() << "a reused stream key was accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("(role 2, index 7) already names"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(fx.net.node_count(), 1u);
}

}  // namespace
}  // namespace stopwatch::net
