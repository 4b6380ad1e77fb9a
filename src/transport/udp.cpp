#include "transport/udp.hpp"

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"

namespace stopwatch::transport {

namespace {
constexpr std::uint32_t kUdpMtuPayload = 1472;
/// How long a receiver waits on a hole before NAKing it (and between NAKs).
constexpr Duration kNakDelay = Duration::millis(20);

std::uint64_t peer_flow_key(NodeId peer, std::uint32_t flow) {
  return (static_cast<std::uint64_t>(peer.value) << 32) | flow;
}
}  // namespace

UdpEndpoint::UdpEndpoint(TransportEnv& env, bool nak_reliability)
    : env_(&env), nak_reliability_(nak_reliability) {}

void UdpEndpoint::set_message_handler(MessageHandler handler) {
  on_message_ = std::move(handler);
}

void UdpEndpoint::send_fragment(NodeId peer, std::uint32_t flow,
                                std::uint32_t msg_id, std::uint32_t msg_len,
                                std::uint32_t off, std::uint32_t len,
                                std::uint32_t tag) {
  net::Packet pkt;
  pkt.dst = peer;
  pkt.kind = net::PacketKind::kData;
  pkt.flow = flow;
  pkt.seq = off;  // datagram offset within the message
  pkt.size_bytes = len + net::kHeaderBytes;
  pkt.msg_id = msg_id;
  pkt.msg_len = msg_len;
  pkt.msg_off = off;
  pkt.app_tag = tag;
  env_->send(pkt);
  ++stats_.datagrams_sent;
}

void UdpEndpoint::send_message(NodeId peer, std::uint32_t flow,
                               std::uint32_t msg_id, std::uint32_t msg_len,
                               std::uint32_t app_tag) {
  SW_EXPECTS(msg_len >= 1);
  for (std::uint32_t off = 0; off < msg_len; off += kUdpMtuPayload) {
    const std::uint32_t len = std::min(kUdpMtuPayload, msg_len - off);
    send_fragment(peer, flow, msg_id, msg_len, off, len, app_tag);
  }
  if (nak_reliability_) {
    tx_retained_[RxKey{peer_flow_key(peer, flow), msg_id}] = {msg_len, app_tag};
    while (tx_retained_.size() > 64) tx_retained_.erase(tx_retained_.begin());
  }
}

void UdpEndpoint::on_packet(const net::Packet& pkt) {
  // NAK service (sender side): retransmit one missing fragment.
  if (pkt.kind == net::PacketKind::kNak) {
    const RxKey k{peer_flow_key(pkt.src, pkt.flow), pkt.msg_id};
    const auto it = tx_retained_.find(k);
    if (it == tx_retained_.end()) return;
    const auto [len_total, tag] = it->second;
    const auto off = static_cast<std::uint32_t>(pkt.seq);
    if (off >= len_total) return;
    const std::uint32_t len = std::min(kUdpMtuPayload, len_total - off);
    send_fragment(pkt.src, pkt.flow, pkt.msg_id, len_total, off, len, tag);
    return;
  }
  if (pkt.kind != net::PacketKind::kData &&
      pkt.kind != net::PacketKind::kRequest) {
    return;
  }
  ++stats_.datagrams_received;

  const std::uint32_t payload = pkt.size_bytes >= net::kHeaderBytes
                                    ? pkt.size_bytes - net::kHeaderBytes
                                    : pkt.size_bytes;
  const RxKey k{peer_flow_key(pkt.src, pkt.flow), pkt.msg_id};
  RxMessage& m = rx_[k];
  if (m.delivered) return;
  m.len = pkt.msg_len;
  m.tag = pkt.app_tag;
  if (m.got.emplace(pkt.msg_off, payload).second) {
    m.bytes += payload;
  }
  maybe_deliver(pkt.src, pkt.flow, pkt.msg_id, m);
  if (!m.delivered && nak_reliability_ && !m.nak_armed) {
    arm_nak(pkt.src, pkt.flow, pkt.msg_id);
  }
}

void UdpEndpoint::maybe_deliver(NodeId peer, std::uint32_t flow,
                                std::uint32_t msg_id, RxMessage& m) {
  if (m.delivered || m.bytes < m.len) return;
  m.delivered = true;
  m.got.clear();
  ++stats_.messages_delivered;
  if (on_message_) on_message_(peer, flow, msg_id, m.len, m.tag);
}

void UdpEndpoint::arm_nak(NodeId peer, std::uint32_t flow,
                          std::uint32_t msg_id) {
  const RxKey k{peer_flow_key(peer, flow), msg_id};
  rx_[k].nak_armed = true;
  env_->set_timer(kNakDelay, [this, peer, flow, msg_id, k] {
    const auto it = rx_.find(k);
    if (it == rx_.end()) return;
    RxMessage& m = it->second;
    m.nak_armed = false;
    if (m.delivered) return;
    // NAK the first missing fragment.
    std::uint32_t expect = 0;
    for (const auto& [off, len] : m.got) {
      if (off > expect) break;
      expect = off + len;
    }
    if (expect >= m.len) return;
    net::Packet nak;
    nak.dst = peer;
    nak.kind = net::PacketKind::kNak;
    nak.flow = flow;
    nak.seq = expect;
    nak.msg_id = msg_id;
    nak.size_bytes = net::kHeaderBytes;
    env_->send(nak);
    ++stats_.naks_sent;
    arm_nak(peer, flow, msg_id);  // re-arm until delivered
  });
}

}  // namespace stopwatch::transport
