// A UDP-like datagram transport with message fragmentation/reassembly and
// NO acknowledgments — the alternative transport of the paper's Fig. 5
// experiment ("UDP StopWatch"), whose near-baseline performance demonstrates
// that StopWatch's cost is dominated by *inbound* packets.
//
// Reliability, when needed, is layered above with NAKs (paper Sec. VII-C
// suggests negative acknowledgments / forward error correction; see
// NakReliableReceiver below for the NAK layer used by the file-download
// workload when losses are enabled).
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "transport/env.hpp"

namespace stopwatch::transport {

struct UdpStats {
  std::uint64_t datagrams_sent{0};
  std::uint64_t datagrams_received{0};
  std::uint64_t messages_delivered{0};
  std::uint64_t naks_sent{0};
};

/// Connectionless endpoint: messages are fragmented into MTU datagrams and
/// reassembled at the receiver; completion fires per message. With
/// `nak_reliability` enabled, the receiver detects holes after the message's
/// advertised length is known and requests retransmission of missing
/// fragments (the sender keeps the last `retain` messages).
class UdpEndpoint {
 public:
  /// on_message(peer, flow, msg_id, msg_len, app_tag).
  using MessageHandler = std::function<void(
      NodeId, std::uint32_t, std::uint32_t, std::uint32_t, std::uint32_t)>;

  explicit UdpEndpoint(TransportEnv& env, bool nak_reliability = false,
                       Duration nak_delay = Duration::millis(20));

  UdpEndpoint(const UdpEndpoint&) = delete;
  UdpEndpoint& operator=(const UdpEndpoint&) = delete;

  void set_message_handler(MessageHandler handler);

  /// Sends a message of `msg_len` bytes to `peer` as back-to-back datagrams.
  void send_message(NodeId peer, std::uint32_t flow, std::uint32_t msg_id,
                    std::uint32_t msg_len, std::uint32_t app_tag);

  /// Feed an inbound packet addressed to this endpoint.
  void on_packet(const net::Packet& pkt);

  [[nodiscard]] const UdpStats& stats() const { return stats_; }

 private:
  struct RxMessage {
    std::uint32_t len{0};
    std::uint32_t tag{0};
    std::map<std::uint32_t, std::uint32_t> got;  // offset -> fragment len
    std::uint32_t bytes{0};
    bool delivered{false};
    bool nak_armed{false};
  };
  struct RxKey {
    std::uint64_t peer_flow{0};
    std::uint32_t msg_id{0};
    auto operator<=>(const RxKey&) const = default;
  };

  void maybe_deliver(NodeId peer, std::uint32_t flow, std::uint32_t msg_id,
                     RxMessage& m);
  /// The lossy-fabric repair path: no scenario enables nak_reliability,
  /// so only the loss tests reach it.
  void arm_nak(NodeId peer, std::uint32_t flow, std::uint32_t msg_id);
  void send_fragment(NodeId peer, std::uint32_t flow, std::uint32_t msg_id,
                     std::uint32_t msg_len, std::uint32_t off,
                     std::uint32_t len, std::uint32_t tag);

  TransportEnv* env_;
  bool nak_reliability_;
  Duration nak_delay_;
  MessageHandler on_message_;
  std::map<RxKey, RxMessage> rx_;
  /// Sender-side retained messages for NAK service: key -> (len, tag).
  std::map<RxKey, std::pair<std::uint32_t, std::uint32_t>> tx_retained_;
  UdpStats stats_;
};

}  // namespace stopwatch::transport
