#include "transport/tcp.hpp"

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"

namespace stopwatch::transport {

namespace {
/// Congestion-window cap in segments (~23 KB — a 2.6-era Linux default
/// receive window, as on the paper's testbed guests).
constexpr int kMaxCwnd = 16;
constexpr Duration kRto = Duration::millis(200);
/// Delayed ACKs: one ACK per this many segments, or after the timer.
constexpr int kAckEvery = 2;
constexpr Duration kDelayedAck = Duration::millis(5);
}  // namespace

TcpEndpoint::TcpEndpoint(TransportEnv& env) : env_(&env) {}

void TcpEndpoint::listen(MessageHandler on_message) {
  SW_EXPECTS(on_message != nullptr);
  listening_ = true;
  on_message_ = std::move(on_message);
}

void TcpEndpoint::set_message_handler(MessageHandler handler) {
  on_message_ = std::move(handler);
}

TcpEndpoint::Connection& TcpEndpoint::conn(NodeId peer, std::uint32_t flow) {
  auto [it, inserted] = conns_.try_emplace(key(peer, flow));
  if (inserted) {
    it->second.peer = peer;
    it->second.flow = flow;
  }
  return it->second;
}

void TcpEndpoint::connect(NodeId peer, std::uint32_t flow,
                          ConnectedHandler on_connected) {
  Connection& c = conn(peer, flow);
  SW_EXPECTS(!c.established && !c.syn_sent);
  c.syn_sent = true;
  c.on_connected = std::move(on_connected);

  net::Packet syn;
  syn.dst = peer;
  syn.kind = net::PacketKind::kSyn;
  syn.flow = flow;
  syn.size_bytes = net::kHeaderBytes;
  env_->send(syn);
  ++stats_.control_packets_sent;
  arm_rto(c);
}

void TcpEndpoint::send_message(NodeId peer, std::uint32_t flow,
                               std::uint32_t msg_id, std::uint32_t msg_len,
                               std::uint32_t app_tag) {
  SW_EXPECTS(msg_len >= 1);
  Connection& c = conn(peer, flow);
  Message m;
  m.id = msg_id;
  m.start = c.stream_len;
  m.len = msg_len;
  m.tag = app_tag;
  c.tx_messages.push_back(m);
  c.stream_len += msg_len;
  if (c.established) pump(c);
}

void TcpEndpoint::close(NodeId peer, std::uint32_t flow) {
  const auto it = conns_.find(key(peer, flow));
  if (it != conns_.end()) it->second.closed = true;
}

void TcpEndpoint::release_if_done(Connections::iterator it) {
  // Timers of an erased connection find no entry and return, as they
  // returned before on a cleared flag or a stale generation.
  const Connection& c = it->second;
  if (c.closed && !c.rto_armed && c.snd_una == c.stream_len &&
      c.ooo.empty() && c.rx_headers.empty() && c.unacked_segments == 0 &&
      !c.delack_armed) {
    conns_.erase(it);
  }
}

const TcpEndpoint::Message* TcpEndpoint::message_at(
    Connection& c, std::uint64_t offset) const {
  for (const Message& m : c.tx_messages) {
    if (offset >= m.start && offset < m.start + m.len) return &m;
  }
  return nullptr;
}

void TcpEndpoint::pump(Connection& c) {
  SW_ASSERT(c.established);
  const auto in_flight = [&c] {
    return static_cast<int>((c.snd_next - c.snd_una + net::kMss - 1) /
                            net::kMss);
  };
  while (c.snd_next < c.stream_len && in_flight() < c.cwnd) {
    const Message* m = message_at(c, c.snd_next);
    SW_ASSERT(m != nullptr);
    send_segment(c, c.snd_next, *m);
    const std::uint64_t msg_end = m->start + m->len;
    const std::uint32_t payload = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(net::kMss, msg_end - c.snd_next));
    c.snd_next += payload;
  }
  if (c.snd_next > c.snd_una) arm_rto(c);
}

void TcpEndpoint::send_segment(Connection& c, std::uint64_t seq,
                               const Message& m) {
  const std::uint64_t msg_end = m.start + m.len;
  const std::uint32_t payload = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(net::kMss, msg_end - seq));
  net::Packet pkt;
  pkt.dst = c.peer;
  pkt.kind = net::PacketKind::kData;
  pkt.flow = c.flow;
  pkt.seq = seq;
  pkt.size_bytes = payload + net::kHeaderBytes;
  pkt.msg_id = m.id;
  pkt.msg_len = m.len;
  pkt.msg_off = static_cast<std::uint32_t>(seq - m.start);
  pkt.app_tag = m.tag;
  env_->send(pkt);
  ++stats_.data_packets_sent;
}

void TcpEndpoint::arm_rto(Connection& c) {
  c.rto_armed = true;
  c.rto_deadline_ns = env_->now_ns() + kRto.ns;
  if (!c.rto_timer_pending) schedule_rto(c, kRto);
}

void TcpEndpoint::schedule_rto(Connection& c, Duration delay) {
  c.rto_timer_pending = true;
  const std::uint64_t generation = ++c.rto_generation;
  const Key k = key(c.peer, c.flow);
  env_->set_timer(delay, [this, k, generation] { on_rto(k, generation); });
}

void TcpEndpoint::on_rto(Key k, std::uint64_t generation) {
  const auto it = conns_.find(k);
  if (it == conns_.end()) return;
  Connection& c = it->second;
  if (c.rto_generation != generation) return;  // not this connection's timer
  c.rto_timer_pending = false;
  if (!c.rto_armed) return;
  // ACKs since this timer was scheduled moved the deadline: wait out the
  // rest of it (Linux's mod_timer, without a timer per ACK).
  const std::int64_t now = env_->now_ns();
  if (now < c.rto_deadline_ns) {
    schedule_rto(c, Duration::nanos(c.rto_deadline_ns - now));
    return;
  }

  if (!c.established) {
    if (!c.syn_sent) return;
    // Retransmit SYN.
    net::Packet syn;
    syn.dst = c.peer;
    syn.kind = net::PacketKind::kSyn;
    syn.flow = c.flow;
    syn.size_bytes = net::kHeaderBytes;
    env_->send(syn);
    ++stats_.control_packets_sent;
    ++stats_.retransmissions;
    arm_rto(c);
    return;
  }
  if (c.snd_una >= c.snd_next) {
    c.rto_armed = false;
    return;  // everything acked meanwhile
  }
  // Go-back-N: rewind and re-enter slow start.
  ++stats_.retransmissions;
  c.snd_next = c.snd_una;
  c.cwnd = kInitialCwnd;
  pump(c);
}

void TcpEndpoint::send_ack(Connection& c) {
  net::Packet ack;
  ack.dst = c.peer;
  ack.kind = net::PacketKind::kAck;
  ack.flow = c.flow;
  ack.ack = c.rcv_next;
  ack.size_bytes = net::kHeaderBytes;
  env_->send(ack);
  ++stats_.ack_packets_sent;
  c.unacked_segments = 0;
}

void TcpEndpoint::on_packet(const net::Packet& pkt) {
  ++stats_.packets_received;
  if (pkt.kind == net::PacketKind::kSyn) {
    if (!listening_) return;
    Connection& c = conn(pkt.src, pkt.flow);
    c.established = true;
    net::Packet sa;
    sa.dst = pkt.src;
    sa.kind = net::PacketKind::kSynAck;
    sa.flow = pkt.flow;
    sa.size_bytes = net::kHeaderBytes;
    env_->send(sa);
    ++stats_.control_packets_sent;
    return;
  }
  // From the wire, only a SYN opens a connection. Anything else for one
  // this endpoint does not hold is late traffic of a connection close()
  // released, such as a reordered ACK of data since acked.
  const auto it = conns_.find(key(pkt.src, pkt.flow));
  if (it == conns_.end()) return;
  Connection& c = it->second;
  switch (pkt.kind) {
    case net::PacketKind::kSynAck: {
      if (!c.syn_sent) return;
      const bool first = !c.established;
      c.established = true;
      c.rto_armed = false;
      net::Packet ack;
      ack.dst = pkt.src;
      ack.kind = net::PacketKind::kAck;
      ack.flow = pkt.flow;
      ack.ack = 0;
      ack.size_bytes = net::kHeaderBytes;
      env_->send(ack);
      ++stats_.ack_packets_sent;
      if (first && c.on_connected) c.on_connected(pkt.src, pkt.flow);
      pump(c);
      break;
    }
    case net::PacketKind::kAck:
      c.established = true;  // implicit accept of handshake ACK
      handle_ack(c, pkt);
      break;
    case net::PacketKind::kData:
      c.established = true;
      handle_data(c, pkt);
      break;
    case net::PacketKind::kFin:
      return;  // teardown is not on the wire: see close()
    default:
      return;  // not a TCP packet
  }
  release_if_done(it);
}

void TcpEndpoint::handle_ack(Connection& c, const net::Packet& pkt) {
  if (pkt.ack > c.snd_una) {
    c.snd_una = pkt.ack;
    // After a go-back-N rewind, a cumulative ACK for data the receiver had
    // already buffered can pass snd_next; transmission resumes from it.
    if (c.snd_next < c.snd_una) c.snd_next = c.snd_una;
    // Slow-start growth per ACK, capped.
    c.cwnd = std::min(kMaxCwnd, c.cwnd + 1);
    // Prune fully acknowledged messages.
    while (!c.tx_messages.empty() &&
           c.tx_messages.front().start + c.tx_messages.front().len <=
               c.snd_una) {
      c.tx_messages.pop_front();
    }
    if (c.snd_una >= c.snd_next) {
      c.rto_armed = false;
    } else {
      arm_rto(c);
    }
  }
  pump(c);
}

void TcpEndpoint::handle_data(Connection& c, const net::Packet& pkt) {
  const std::uint32_t payload = pkt.size_bytes >= net::kHeaderBytes
                                    ? pkt.size_bytes - net::kHeaderBytes
                                    : 0;
  SW_ASSERT(payload > 0);

  // Record the message header (start derivable from seq - msg_off).
  const std::uint64_t msg_start = pkt.seq - pkt.msg_off;
  Message m;
  m.id = pkt.msg_id;
  m.start = msg_start;
  m.len = pkt.msg_len;
  m.tag = pkt.app_tag;
  c.rx_headers.emplace(msg_start, m);

  // Advance the in-order window.
  if (pkt.seq <= c.rcv_next) {
    c.rcv_next = std::max(c.rcv_next, pkt.seq + payload);
    // Absorb any stashed out-of-order data now contiguous.
    auto it = c.ooo.begin();
    while (it != c.ooo.end() && it->first <= c.rcv_next) {
      c.rcv_next = std::max(c.rcv_next, it->first + it->second);
      it = c.ooo.erase(it);
    }
  } else {
    c.ooo.emplace(pkt.seq, payload);
  }

  deliver_messages(c);

  // Delayed-ACK policy.
  if (++c.unacked_segments >= kAckEvery || !c.ooo.empty()) {
    send_ack(c);
  } else if (!c.delack_armed) {
    c.delack_armed = true;
    const std::uint64_t generation = ++c.delack_generation;
    const Key k = key(c.peer, c.flow);
    env_->set_timer(kDelayedAck, [this, k, generation] {
      const auto it = conns_.find(k);
      if (it == conns_.end()) return;
      Connection& cc = it->second;
      if (cc.delack_generation != generation) return;
      cc.delack_armed = false;
      if (cc.unacked_segments > 0) send_ack(cc);
      release_if_done(it);
    });
  }
}

void TcpEndpoint::deliver_messages(Connection& c) {
  for (;;) {
    const auto it = c.rx_headers.find(c.next_msg_start);
    if (it == c.rx_headers.end()) return;
    const Message& m = it->second;
    if (c.rcv_next < m.start + m.len) return;  // not fully received
    ++stats_.messages_delivered;
    if (on_message_) on_message_(c.peer, c.flow, m.id, m.len, m.tag);
    c.next_msg_start = m.start + m.len;
    c.rx_headers.erase(it);
  }
}

}  // namespace stopwatch::transport
