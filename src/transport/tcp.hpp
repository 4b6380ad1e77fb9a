// A compact TCP-like reliable byte-stream transport with message framing.
//
// Models the TCP behaviours that drive the paper's Fig. 5/6 results:
//  * 3-way handshake (SYN / SYN-ACK / ACK) — two of which are *inbound* to
//    the server and therefore pay StopWatch's Δn on every connection;
//  * MSS segmentation, a slow-start congestion window, cumulative ACKs;
//  * delayed ACKs (every 2nd segment or a short timer) — the coalescing
//    that makes packets-per-operation fall as NFS load rises (Fig. 6(b));
//  * go-back-N retransmission on RTO (losses are rare on the cloud LAN but
//    the protocol must stay correct under them). The RTO is due 200 ms
//    after the last send or ACK that left data in flight; like Linux's
//    mod_timer, re-arming moves the deadline of one pending timer event
//    instead of scheduling one per ACK, so a guest pays for a timer
//    interrupt only when the deadline is actually reached (or an earlier
//    event finds that it has moved and re-arms for the rest).
//
// Application data is exchanged as *messages* (length-delimited byte runs);
// the receiver fires one callback per completed message.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "transport/env.hpp"

namespace stopwatch::transport {

/// Statistics per endpoint (both directions, all connections).
struct TcpStats {
  std::uint64_t data_packets_sent{0};
  std::uint64_t ack_packets_sent{0};
  std::uint64_t control_packets_sent{0};  // SYN / SYN-ACK / FIN
  std::uint64_t packets_received{0};
  std::uint64_t retransmissions{0};
  std::uint64_t messages_delivered{0};
};

/// A TCP-like endpoint multiplexing connections by (peer, flow).
class TcpEndpoint {
 public:
  /// on_message(peer, flow, msg_id, msg_len, app_tag).
  using MessageHandler = std::function<void(
      NodeId, std::uint32_t, std::uint32_t, std::uint32_t, std::uint32_t)>;
  using ConnectedHandler = std::function<void(NodeId, std::uint32_t)>;

  explicit TcpEndpoint(TransportEnv& env);

  TcpEndpoint(const TcpEndpoint&) = delete;
  TcpEndpoint& operator=(const TcpEndpoint&) = delete;

  /// Accept inbound connections; `on_message` fires per completed message.
  void listen(MessageHandler on_message);

  /// Actively open a connection.
  void connect(NodeId peer, std::uint32_t flow, ConnectedHandler on_connected);

  /// Queue an application message on the connection (opens implicitly on
  /// the client after connect()). Messages are delivered reliably, in
  /// order.
  void send_message(NodeId peer, std::uint32_t flow, std::uint32_t msg_id,
                    std::uint32_t msg_len, std::uint32_t app_tag);

  /// Feed an inbound packet addressed to this endpoint.
  void on_packet(const net::Packet& pkt);

  /// Ends the application's use of the connection. It keeps sending,
  /// retransmitting and acknowledging, and is released once its data is
  /// acked and every segment it received is acked; that is checked as its
  /// packets and delayed ACKs are handled, so close a connection with
  /// traffic still to come (after queuing its last message, or in the
  /// handler of the last message it receives). Teardown is not modelled on
  /// the wire: later segments of the flow are dropped, and a flow is not
  /// reopened after close.
  void close(NodeId peer, std::uint32_t flow);

  /// Registers the message handler for client-side endpoints (responses).
  void set_message_handler(MessageHandler handler);

  [[nodiscard]] const TcpStats& stats() const { return stats_; }

  /// Connections held, closed ones not yet released included: what tests
  /// read to see that close() releases them.
  [[nodiscard]] std::size_t connection_count() const { return conns_.size(); }

 private:
  /// Slow-start initial congestion window, in segments (also the window
  /// a go-back-N rewind re-enters slow start with).
  static constexpr int kInitialCwnd{4};

  struct Message {
    std::uint32_t id{0};
    std::uint64_t start{0};
    std::uint32_t len{0};
    std::uint32_t tag{0};
  };

  struct Connection {
    NodeId peer{};
    std::uint32_t flow{0};
    bool established{false};
    bool syn_sent{false};
    bool closed{false};
    ConnectedHandler on_connected;

    // Sender.
    std::uint64_t snd_una{0};
    std::uint64_t snd_next{0};
    std::uint64_t stream_len{0};
    std::deque<Message> tx_messages;  // pruned as fully acked
    int cwnd{kInitialCwnd};
    /// Retransmission timer: armed while unacked data (or a SYN) waits.
    /// Arming moves the deadline; at most one timer event is pending, and
    /// it re-arms itself for the rest of a deadline that moved meanwhile.
    bool rto_armed{false};
    bool rto_timer_pending{false};
    std::int64_t rto_deadline_ns{0};
    std::uint64_t rto_generation{0};  ///< of the pending timer

    // Receiver.
    std::uint64_t rcv_next{0};
    std::map<std::uint64_t, std::uint32_t> ooo;  // seq -> payload len
    std::map<std::uint64_t, Message> rx_headers;  // msg start -> header
    std::uint64_t next_msg_start{0};
    int unacked_segments{0};
    bool delack_armed{0};
    std::uint64_t delack_generation{0};
  };

  using Key = std::uint64_t;
  static Key key(NodeId peer, std::uint32_t flow) {
    return (static_cast<std::uint64_t>(peer.value) << 32) | flow;
  }

  Connection& conn(NodeId peer, std::uint32_t flow);
  void pump(Connection& c);
  void send_segment(Connection& c, std::uint64_t seq, const Message& m);
  void arm_rto(Connection& c);
  void schedule_rto(Connection& c, Duration delay);
  void on_rto(Key k, std::uint64_t generation);
  void send_ack(Connection& c);
  void deliver_messages(Connection& c);
  void handle_data(Connection& c, const net::Packet& pkt);
  void handle_ack(Connection& c, const net::Packet& pkt);
  const Message* message_at(Connection& c, std::uint64_t offset) const;
  using Connections = std::map<Key, Connection>;
  /// Erases the connection if it is closed and has nothing left to do.
  void release_if_done(Connections::iterator it);

  TransportEnv* env_;
  MessageHandler on_message_;
  bool listening_{false};
  Connections conns_;
  TcpStats stats_;
};

}  // namespace stopwatch::transport
