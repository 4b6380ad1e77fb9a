#include "transport/tcp.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "transport/udp.hpp"

namespace stopwatch::transport {
namespace {

/// Two endpoints joined by a symmetric lossy link over the simulator.
class Loopback {
 public:
  class Env final : public TransportEnv {
   public:
    Env(Loopback& lb, NodeId self) : lb_(&lb), self_(self) {}
    void send(net::Packet pkt) override {
      pkt.src = self_;
      lb_->transmit(pkt);
    }
    void set_timer(Duration delay, std::function<void()> cb) override {
      ++timers_set;
      lb_->sim.schedule_after(delay, std::move(cb));
    }
    [[nodiscard]] std::int64_t now_ns() const override {
      return lb_->sim.now().ns;
    }
    [[nodiscard]] NodeId local_addr() const override { return self_; }

    /// Timers scheduled through this environment.
    int timers_set{0};

   private:
    Loopback* lb_;
    NodeId self_;
  };

  explicit Loopback(double loss = 0.0, Duration latency = Duration::millis(1))
      : loss_(loss), latency_(latency) {}

  void transmit(net::Packet pkt) {
    if (loss_ > 0.0 && rng_.chance(loss_)) return;
    sim.schedule_after(latency_, [this, pkt] {
      deliver_to(pkt.dst, pkt);
    });
  }

  void deliver_to(NodeId dst, const net::Packet& pkt) {
    if (dst.value == 1 && a_rx) a_rx(pkt);
    if (dst.value == 2 && b_rx) b_rx(pkt);
  }

  sim::Simulator sim;
  std::function<void(const net::Packet&)> a_rx, b_rx;

 private:
  double loss_;
  Duration latency_;
  Rng rng_{4242};
};

struct TcpPair {
  Loopback lb;
  Loopback::Env env_a{lb, NodeId{1}};
  Loopback::Env env_b{lb, NodeId{2}};
  TcpEndpoint a{env_a};
  TcpEndpoint b{env_b};

  explicit TcpPair(double loss = 0.0) : lb(loss) {
    lb.a_rx = [this](const net::Packet& p) { a.on_packet(p); };
    lb.b_rx = [this](const net::Packet& p) { b.on_packet(p); };
  }
};

TEST(Tcp, HandshakeConnects) {
  TcpPair pair;
  bool connected = false;
  pair.b.listen([](NodeId, std::uint32_t, std::uint32_t, std::uint32_t,
                   std::uint32_t) {});
  pair.a.connect(NodeId{2}, 1,
                 [&](NodeId peer, std::uint32_t flow) {
                   connected = true;
                   EXPECT_EQ(peer, (NodeId{2}));
                   EXPECT_EQ(flow, 1u);
                 });
  pair.lb.sim.run();
  EXPECT_TRUE(connected);
  // SYN + SYN-ACK + final ACK = 3 packets on the wire.
  EXPECT_EQ(pair.a.stats().control_packets_sent, 1u);
  EXPECT_EQ(pair.b.stats().control_packets_sent, 1u);
  EXPECT_EQ(pair.a.stats().ack_packets_sent, 1u);
}

TEST(Tcp, SmallMessageRoundTrip) {
  TcpPair pair;
  std::vector<std::uint32_t> server_got;
  bool reply_got = false;
  pair.b.listen([&](NodeId peer, std::uint32_t flow, std::uint32_t msg_id,
                    std::uint32_t len, std::uint32_t tag) {
    server_got.push_back(msg_id);
    EXPECT_EQ(len, 300u);
    EXPECT_EQ(tag, 77u);
    pair.b.send_message(peer, flow, msg_id, 1000, 0);
  });
  pair.a.set_message_handler([&](NodeId, std::uint32_t, std::uint32_t msg_id,
                                 std::uint32_t len, std::uint32_t) {
    reply_got = true;
    EXPECT_EQ(msg_id, 5u);
    EXPECT_EQ(len, 1000u);
  });
  pair.a.connect(NodeId{2}, 1, [&](NodeId peer, std::uint32_t flow) {
    pair.a.send_message(peer, flow, 5, 300, 77);
  });
  pair.lb.sim.run();
  EXPECT_EQ(server_got, (std::vector<std::uint32_t>{5}));
  EXPECT_TRUE(reply_got);
}

TEST(Tcp, LargeTransferSegmentsAndDelivers) {
  TcpPair pair;
  const std::uint32_t size = 1'000'000;
  bool done = false;
  pair.b.listen([&](NodeId peer, std::uint32_t flow, std::uint32_t msg_id,
                    std::uint32_t, std::uint32_t tag) {
    pair.b.send_message(peer, flow, msg_id, tag, tag);  // echo tag-sized file
  });
  pair.a.set_message_handler([&](NodeId, std::uint32_t, std::uint32_t,
                                 std::uint32_t len, std::uint32_t) {
    done = true;
    EXPECT_EQ(len, size);
  });
  pair.a.connect(NodeId{2}, 3, [&](NodeId peer, std::uint32_t flow) {
    pair.a.send_message(peer, flow, 1, 200, size);
  });
  pair.lb.sim.run();
  EXPECT_TRUE(done);
  // ~size/mss segments were needed.
  EXPECT_GE(pair.b.stats().data_packets_sent, size / net::kMss);
  // Delayed ACKs: roughly one ACK per two segments, not per segment.
  EXPECT_LT(pair.a.stats().ack_packets_sent,
            pair.b.stats().data_packets_sent);
}

TEST(Tcp, SurvivesHeavyLoss) {
  TcpPair pair(/*loss=*/0.2);
  const std::uint32_t size = 120'000;
  bool done = false;
  pair.b.listen([&](NodeId peer, std::uint32_t flow, std::uint32_t msg_id,
                    std::uint32_t, std::uint32_t tag) {
    pair.b.send_message(peer, flow, msg_id, tag, tag);
  });
  pair.a.set_message_handler([&](NodeId, std::uint32_t, std::uint32_t,
                                 std::uint32_t len, std::uint32_t) {
    done = true;
    EXPECT_EQ(len, size);
  });
  pair.a.connect(NodeId{2}, 1, [&](NodeId peer, std::uint32_t flow) {
    pair.a.send_message(peer, flow, 1, 200, size);
  });
  pair.lb.sim.run();
  EXPECT_TRUE(done);
  EXPECT_GT(pair.b.stats().retransmissions + pair.a.stats().retransmissions,
            0u);
}

TEST(Tcp, MultipleMessagesInOrder) {
  TcpPair pair;
  std::vector<std::uint32_t> order;
  pair.b.listen([&](NodeId, std::uint32_t, std::uint32_t msg_id, std::uint32_t,
                    std::uint32_t) { order.push_back(msg_id); });
  pair.a.connect(NodeId{2}, 1, [&](NodeId peer, std::uint32_t flow) {
    for (std::uint32_t i = 1; i <= 10; ++i) {
      pair.a.send_message(peer, flow, i, 5000, 0);
    }
  });
  pair.lb.sim.run();
  ASSERT_EQ(order.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i + 1);
}

TEST(Tcp, ConcurrentFlowsAreIndependent) {
  TcpPair pair;
  std::vector<std::uint32_t> flows;
  pair.b.listen([&](NodeId, std::uint32_t flow, std::uint32_t, std::uint32_t,
                    std::uint32_t) { flows.push_back(flow); });
  for (std::uint32_t f = 1; f <= 3; ++f) {
    pair.a.connect(NodeId{2}, f, [&pair, f](NodeId peer, std::uint32_t) {
      pair.a.send_message(peer, f, 100 + f, 256, 0);
    });
  }
  pair.lb.sim.run();
  EXPECT_EQ(flows.size(), 3u);
}

TEST(Tcp, ClosedConnectionRetransmitsUntilItsDataIsAcked) {
  TcpPair pair;
  bool lost = false;
  pair.lb.b_rx = [&](const net::Packet& p) {
    if (p.kind == net::PacketKind::kData && !lost) {
      lost = true;  // the only data segment, first time round
      return;
    }
    pair.b.on_packet(p);
  };
  int delivered = 0;
  pair.b.listen([&](NodeId, std::uint32_t, std::uint32_t, std::uint32_t,
                    std::uint32_t) { ++delivered; });
  pair.a.connect(NodeId{2}, 1, [&](NodeId peer, std::uint32_t flow) {
    pair.a.send_message(peer, flow, 1, 1000, 0);
    pair.a.close(peer, flow);
  });
  // The segment is lost and its RTO (200 ms) is not yet due: the closed
  // connection still holds it.
  pair.lb.sim.run_until(RealTime::millis(100));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(pair.a.connection_count(), 1u);
  pair.lb.sim.run_until(RealTime::millis(2000));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(pair.a.stats().retransmissions, 1u);
  EXPECT_EQ(pair.a.connection_count(), 0u);
  EXPECT_EQ(pair.b.connection_count(), 1u);  // b never closed its end
}

TEST(Tcp, ClosedConnectionSendsItsPendingDelayedAck) {
  TcpPair pair;
  pair.b.listen([&](NodeId peer, std::uint32_t flow, std::uint32_t,
                    std::uint32_t, std::uint32_t) {
    pair.b.close(peer, flow);
  });
  pair.a.connect(NodeId{2}, 1, [&](NodeId peer, std::uint32_t flow) {
    // One segment: b acknowledges it only when its delayed-ACK timer fires.
    pair.a.send_message(peer, flow, 1, 300, 0);
  });
  pair.lb.sim.run_until(RealTime::millis(2000));
  EXPECT_EQ(pair.b.stats().ack_packets_sent, 1u);
  EXPECT_EQ(pair.b.connection_count(), 0u);
  // The ACK reached a before its RTO: nothing was sent twice.
  EXPECT_EQ(pair.a.stats().retransmissions, 0u);
}

TEST(Tcp, NewFlowToTheSamePeerAfterClose) {
  TcpPair pair;
  pair.b.listen([&](NodeId peer, std::uint32_t flow, std::uint32_t msg_id,
                    std::uint32_t, std::uint32_t tag) {
    pair.b.send_message(peer, flow, msg_id, tag, tag);
    pair.b.close(peer, flow);
  });
  std::vector<std::uint32_t> replies;
  pair.a.set_message_handler([&](NodeId peer, std::uint32_t flow,
                                 std::uint32_t msg_id, std::uint32_t,
                                 std::uint32_t) {
    replies.push_back(msg_id);
    pair.a.close(peer, flow);
  });
  for (std::uint32_t flow = 1; flow <= 2; ++flow) {
    pair.a.connect(NodeId{2}, flow, [&pair, flow](NodeId peer, std::uint32_t) {
      pair.a.send_message(peer, flow, flow, 200, 5000);
    });
    pair.lb.sim.run_until(RealTime::millis(2000 * flow));
    EXPECT_EQ(pair.a.connection_count(), 0u) << "flow " << flow;
    EXPECT_EQ(pair.b.connection_count(), 0u) << "flow " << flow;
  }
  EXPECT_EQ(replies, (std::vector<std::uint32_t>{1, 2}));
}

TEST(Tcp, AcksKeepOneRetransmissionTimer) {
  // a only sends data and receives ACKs, so every timer its environment
  // schedules is an RTO timer. ACKs move the deadline of the pending one:
  // the count grows with the transfer's length in RTOs, not with its ACKs.
  TcpPair pair;
  const std::uint32_t size = 1 << 20;
  std::int64_t delivered_ns = -1;
  pair.b.listen([&](NodeId, std::uint32_t, std::uint32_t, std::uint32_t len,
                    std::uint32_t) {
    EXPECT_EQ(len, size);
    delivered_ns = pair.lb.sim.now().ns;
  });
  pair.a.connect(NodeId{2}, 1, [&](NodeId peer, std::uint32_t flow) {
    pair.a.send_message(peer, flow, 1, size, 0);
  });
  pair.lb.sim.run();
  ASSERT_GT(delivered_ns, 0);
  EXPECT_EQ(pair.a.stats().retransmissions, 0u);
  EXPECT_GT(pair.b.stats().ack_packets_sent, 300u);
  // One timer for the SYN, one per RTO of transfer it re-arms for, and
  // the last one, which finds nothing in flight.
  const std::int64_t rtos = delivered_ns / Duration::millis(200).ns;
  EXPECT_LE(pair.env_a.timers_set, 2 + rtos)
      << pair.b.stats().ack_packets_sent << " ACKs over " << delivered_ns
      << " ns";
}

TEST(Tcp, RetransmitsOneRtoAfterTheLastAck) {
  // Twenty segments; the first copy of the eleventh is lost. The ACKs of
  // the first ten and the duplicate ACKs of the rest each move the RTO
  // deadline, so the segment is resent 200 ms after the last of them, by
  // the one timer pending since the SYN (re-armed once for the deadline
  // that moved), not by the last of one timer per ACK.
  TcpPair pair;
  const std::uint64_t lost_seq = 10 * net::kMss;
  std::vector<std::int64_t> resent_ns;
  int timers_at_resend = -1;
  bool lost = false;
  pair.lb.b_rx = [&](const net::Packet& p) {
    if (p.kind == net::PacketKind::kData && p.seq == lost_seq) {
      if (!lost) {
        lost = true;
        return;
      }
      // The link delays every packet by 1 ms.
      resent_ns.push_back(pair.lb.sim.now().ns - Duration::millis(1).ns);
      timers_at_resend = pair.env_a.timers_set;
    }
    pair.b.on_packet(p);
  };
  std::int64_t last_ack_ns = -1;
  pair.lb.a_rx = [&](const net::Packet& p) {
    if (p.kind == net::PacketKind::kAck && resent_ns.empty()) {
      last_ack_ns = pair.lb.sim.now().ns;
    }
    pair.a.on_packet(p);
  };
  int delivered = 0;
  pair.b.listen([&](NodeId, std::uint32_t, std::uint32_t, std::uint32_t,
                    std::uint32_t) { ++delivered; });
  pair.a.connect(NodeId{2}, 1, [&](NodeId peer, std::uint32_t flow) {
    pair.a.send_message(peer, flow, 1, 20 * net::kMss, 0);
  });
  pair.lb.sim.run();
  ASSERT_EQ(resent_ns.size(), 1u);
  EXPECT_EQ(resent_ns.front(), last_ack_ns + Duration::millis(200).ns);
  // The SYN's timer, its re-arm at the moved deadline, and the timer the
  // retransmission armed.
  EXPECT_EQ(timers_at_resend, 3);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(pair.a.stats().retransmissions, 1u);
}

TEST(Tcp, LateAckOfAReleasedFlowIsDropped) {
  TcpPair pair;
  std::vector<net::Packet> acks;
  pair.lb.a_rx = [&](const net::Packet& p) {
    if (p.kind == net::PacketKind::kAck) acks.push_back(p);
    pair.a.on_packet(p);
  };
  pair.b.listen([](NodeId, std::uint32_t, std::uint32_t, std::uint32_t,
                   std::uint32_t) {});
  pair.a.connect(NodeId{2}, 1, [&](NodeId peer, std::uint32_t flow) {
    pair.a.send_message(peer, flow, 1, 20'000, 0);
    pair.a.close(peer, flow);
  });
  pair.lb.sim.run_until(RealTime::millis(2000));
  ASSERT_EQ(pair.a.connection_count(), 0u);
  ASSERT_GE(acks.size(), 2u);
  // A reordered copy of an early ACK arrives after the release: it must
  // not reopen the flow.
  pair.a.on_packet(acks.front());
  pair.lb.sim.run_until(RealTime::millis(4000));
  EXPECT_EQ(pair.a.connection_count(), 0u);
}

TEST(Udp, MessageFragmentationAndReassembly) {
  Loopback lb;
  Loopback::Env env_a(lb, NodeId{1});
  Loopback::Env env_b(lb, NodeId{2});
  UdpEndpoint a(env_a);
  UdpEndpoint b(env_b);
  lb.a_rx = [&](const net::Packet& p) { a.on_packet(p); };
  lb.b_rx = [&](const net::Packet& p) { b.on_packet(p); };

  bool got = false;
  b.set_message_handler([&](NodeId, std::uint32_t, std::uint32_t msg_id,
                            std::uint32_t len, std::uint32_t) {
    got = true;
    EXPECT_EQ(msg_id, 9u);
    EXPECT_EQ(len, 100'000u);
  });
  a.send_message(NodeId{2}, 1, 9, 100'000, 0);
  lb.sim.run();
  EXPECT_TRUE(got);
  EXPECT_GE(a.stats().datagrams_sent, 100'000u / 1472u);
}

TEST(Udp, NoAcknowledgmentTraffic) {
  Loopback lb;
  Loopback::Env env_a(lb, NodeId{1});
  Loopback::Env env_b(lb, NodeId{2});
  UdpEndpoint a(env_a);
  UdpEndpoint b(env_b);
  int b_to_a = 0;
  lb.a_rx = [&](const net::Packet& p) {
    ++b_to_a;
    a.on_packet(p);
  };
  lb.b_rx = [&](const net::Packet& p) { b.on_packet(p); };
  b.set_message_handler([](NodeId, std::uint32_t, std::uint32_t, std::uint32_t,
                           std::uint32_t) {});
  a.send_message(NodeId{2}, 1, 1, 50'000, 0);
  lb.sim.run();
  EXPECT_EQ(b_to_a, 0);  // nothing flows back: that is the point of Fig. 5
}

TEST(Udp, NakReliabilityRecoversLoss) {
  Loopback lb(/*loss=*/0.25);
  Loopback::Env env_a(lb, NodeId{1});
  Loopback::Env env_b(lb, NodeId{2});
  UdpEndpoint a(env_a, /*nak_reliability=*/true);
  UdpEndpoint b(env_b, /*nak_reliability=*/true);
  lb.a_rx = [&](const net::Packet& p) { a.on_packet(p); };
  lb.b_rx = [&](const net::Packet& p) { b.on_packet(p); };

  bool got = false;
  b.set_message_handler([&](NodeId, std::uint32_t, std::uint32_t,
                            std::uint32_t len, std::uint32_t) {
    got = true;
    EXPECT_EQ(len, 200'000u);
  });
  a.send_message(NodeId{2}, 1, 4, 200'000, 0);
  lb.sim.run();
  EXPECT_TRUE(got);
  EXPECT_GT(b.stats().naks_sent, 0u);
}

TEST(Udp, LateFragmentOfDeliveredMessageIsIgnored) {
  // A delivered message keeps only its tombstone: a duplicate fragment
  // arriving afterwards must neither deliver it again nor provoke a NAK.
  for (const bool nak : {false, true}) {
    Loopback lb;
    Loopback::Env env_a(lb, NodeId{1});
    Loopback::Env env_b(lb, NodeId{2});
    UdpEndpoint a(env_a, nak);
    UdpEndpoint b(env_b, nak);
    std::vector<net::Packet> fragments;
    lb.a_rx = [&](const net::Packet& p) { a.on_packet(p); };
    lb.b_rx = [&](const net::Packet& p) {
      if (fragments.size() < 4) fragments.push_back(p);
      b.on_packet(p);
    };
    int delivered = 0;
    b.set_message_handler([&](NodeId, std::uint32_t, std::uint32_t,
                              std::uint32_t, std::uint32_t) { ++delivered; });
    a.send_message(NodeId{2}, 1, 3, 5'000, 0);
    lb.sim.run();
    ASSERT_EQ(delivered, 1) << "nak=" << nak;
    ASSERT_EQ(fragments.size(), 4u);
    // One stray duplicate, given time for a NAK timer to fire...
    b.on_packet(fragments.front());
    lb.sim.run();
    // ...then a whole duplicate copy of the message.
    for (const net::Packet& p : fragments) b.on_packet(p);
    lb.sim.run();
    EXPECT_EQ(delivered, 1) << "nak=" << nak;
    EXPECT_EQ(b.stats().messages_delivered, 1u) << "nak=" << nak;
    EXPECT_EQ(b.stats().naks_sent, 0u) << "nak=" << nak;
  }
}

}  // namespace
}  // namespace stopwatch::transport
