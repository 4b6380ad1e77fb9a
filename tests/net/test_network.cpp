#include "net/network.hpp"

#include <gtest/gtest.h>

#include <cstdint>
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
  const NodeId a = fx.net.add_node([](const Frame&) {});
  const NodeId b = fx.net.add_node([&](const Frame& f) {
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
  const NodeId a = fx.net.add_node([](const Frame&) {});
  const NodeId b =
      fx.net.add_node([&](const Frame&) { arrival = fx.sim.now(); });
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
  const NodeId a = fx.net.add_node([](const Frame&) {});
  const NodeId b = fx.net.add_node(
      [&](const Frame&) { arrivals.push_back(fx.sim.now()); });
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
  const NodeId a = fx.net.add_node([](const Frame&) {});
  const NodeId b = fx.net.add_node([&](const Frame&) { ++received; });
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
  a = fx.net.add_node([&](const Frame&) { ba = fx.sim.now(); });
  b = fx.net.add_node([&](const Frame&) { ab = fx.sim.now(); });
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
  const NodeId a = fx.net.add_node([](const Frame&) {});
  Frame f = guest_frame(a, NodeId{99}, 10);
  EXPECT_THROW(fx.net.send(f), ContractViolation);
}

TEST(Network, NodeLinkAppliesToAllTrafficOfANode) {
  // One set_node_link entry must model a slow client against every peer —
  // the O(1) alternative to per-pair links against each of Θ(n²) VMs.
  Fixture fx;
  RealTime to_client{}, to_peer{}, from_client{};
  const NodeId client =
      fx.net.add_node([&](const Frame&) { to_client = fx.sim.now(); });
  const NodeId a =
      fx.net.add_node([&](const Frame&) { from_client = fx.sim.now(); });
  const NodeId b =
      fx.net.add_node([&](const Frame&) { to_peer = fx.sim.now(); });
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
    const NodeId a = fx.net.add_node([](const Frame&) {});
    const NodeId b = fx.net.add_node([](const Frame&) {});
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
    const NodeId a = fx.net.add_node([](const Frame&) {});
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

TEST(Network, DropHookDropsBeforeDrawAndUplink) {
  // A hooked drop is counted like a loss but takes no RNG draw and no
  // serialization time: the frame behind it arrives exactly as if the
  // dropped one had never been offered.
  const auto second_arrival = [](bool drop_first) {
    Fixture fx;
    RealTime arrival{};
    int received = 0;
    const NodeId a = fx.net.add_node([](const Frame&) {});
    const NodeId b = fx.net.add_node([&](const Frame&) {
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
    sim::ShardedConfig cfg;
    cfg.shards = shards;
    sim::ShardedSimulator kernel{cfg};
    Network net{kernel, Rng(1234)};
    Outcome out;
    const NodeId a = net.add_node([](const Frame&) {});
    const NodeId b = net.add_node([&](const Frame&) {
      out.arrival_ns = kernel.shard(shards - 1).now().ns;
    });
    net.set_node_owner(b, shards - 1);
    // As core::Cloud::run_for does: the default link's floor (~55 us) is
    // below the kernel's default window.
    kernel.set_window(net.min_latency_floor());
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

TEST(Network, ReservedIdBoundLateDrawsTheEagerStream) {
  // A node's stream is forked by its ID whenever its record is built, so
  // binding the middle of three reserved IDs after the other two leaves
  // every frame it sends arriving at the eager nanosecond.
  const auto arrivals = [](bool late) {
    Fixture fx;
    std::vector<std::int64_t> out;
    NodeId a;
    NodeId mid;
    NodeId c;
    const auto sink = [&](const Frame&) { out.push_back(fx.sim.now().ns); };
    if (late) {
      a = fx.net.reserve_node();
      mid = fx.net.reserve_node();
      c = fx.net.reserve_node();
      fx.net.bind_node(a, sink);
      fx.net.bind_node(c, sink);
      EXPECT_FALSE(fx.net.is_bound(mid));
      fx.net.bind_node(mid, [](const Frame&) {});
    } else {
      a = fx.net.add_node(sink);
      mid = fx.net.add_node([](const Frame&) {});
      c = fx.net.add_node(sink);
    }
    EXPECT_EQ(fx.net.node_count(), 3u);
    for (int i = 0; i < 8; ++i) {
      fx.sim.schedule_at(RealTime::millis(i), [&fx, mid, a, c, i] {
        fx.net.send(guest_frame(mid, i % 2 == 0 ? a : c, 200));
      });
    }
    fx.sim.run();
    return out;
  };
  const std::vector<std::int64_t> eager = arrivals(false);
  ASSERT_EQ(eager.size(), 8u);
  EXPECT_EQ(arrivals(true), eager);
}

TEST(Network, FrameToAnUnboundIdReachesTheUnboundHandler) {
  // The sender sits on owner 1; the frame crosses to owner 0, where
  // unbound IDs deliver, at the instant a bound owner-0 node would see it
  // (the jitter draw belongs to the sender).
  const auto deliver = [](bool bound) {
    sim::ShardedConfig cfg;
    cfg.shards = 2;
    sim::ShardedSimulator kernel{cfg};
    Network net{kernel, Rng(1234)};
    std::int64_t arrival_ns = -1;
    int unbound_frames = 0;
    net.set_unbound_handler([&](const Frame& f) {
      ++unbound_frames;
      arrival_ns = kernel.shard(0).now().ns;
      EXPECT_EQ(f.size_bytes, 1500u);
    });
    const NodeId a = net.add_node([](const Frame&) {});
    net.set_node_owner(a, 1);
    const NodeId dst = net.reserve_node();
    if (bound) {
      net.bind_node(dst, [&](const Frame&) {
        arrival_ns = kernel.shard(0).now().ns;
      });
    }
    kernel.set_window(net.min_latency_floor());
    kernel.shard(1).schedule_at(RealTime::nanos(10'000), [&] {
      EXPECT_TRUE(net.send(guest_frame(a, dst, 1500)));
    });
    kernel.run_until(RealTime::millis(5));
    EXPECT_EQ(kernel.cross_scheduled(), 1u);
    EXPECT_EQ(unbound_frames, bound ? 0 : 1);
    EXPECT_EQ(net.is_bound(dst), bound);
    EXPECT_EQ(net.node_count(), 2u);
    return arrival_ns;
  };
  const std::int64_t unbound = deliver(false);
  ASSERT_GT(unbound, 0);
  EXPECT_EQ(unbound, deliver(true));
}

TEST(Network, SendToAnUnboundIdWithoutAHandlerIsRejected) {
  Fixture fx;
  const NodeId a = fx.net.add_node([](const Frame&) {});
  const NodeId reserved = fx.net.reserve_node();
  EXPECT_THROW(fx.net.send(guest_frame(a, reserved, 100)), ContractViolation);
  // Past every issued ID, even a fabric-wide handler does not apply.
  fx.net.set_unbound_handler([](const Frame&) {});
  EXPECT_THROW(fx.net.send(guest_frame(a, NodeId{99}, 100)),
               ContractViolation);
  EXPECT_TRUE(fx.net.send(guest_frame(a, reserved, 100)));
}

}  // namespace
}  // namespace stopwatch::net
