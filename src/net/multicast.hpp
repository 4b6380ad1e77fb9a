// NAK-based reliable multicast — the OpenPGM stand-in (paper Sec. VII-A).
//
// StopWatch uses reliable multicast for (1) replicating inbound guest
// packets from the ingress node to the three hosting VMMs and (2) the
// VMM-to-VMM exchange of proposed delivery times, sync beacons, and epoch
// reports. As in PGM, reliability is receiver-driven: receivers detect
// sequence gaps and request retransmission with NAKs; senders keep a
// retransmission buffer.
//
// The machinery behind that — the sender's retransmission buffer, its SPM
// heartbeat chain, which lets a receiver detect the loss of a stream's
// last messages, and a receiver's NAK timer on a sequence gap — runs only
// when Network::may_drop(), which is final once the first frame is sent.
// On a fabric that cannot lose a frame each gap is a reordered frame still
// in flight, so the out-of-order stash alone restores sequence order.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"

namespace stopwatch::net {

/// One member's endpoint in a reliable multicast group. A group is a set of
/// nodes; each member may send to all others and receives all traffic.
class MulticastGroup {
 public:
  using DeliverFn = std::function<void(NodeId sender, const FramePayload&)>;

  /// `group_id` must be unique per Network and nonzero.
  MulticastGroup(Network& network, std::uint32_t group_id);

  MulticastGroup(const MulticastGroup&) = delete;
  MulticastGroup& operator=(const MulticastGroup&) = delete;

  /// Adds a member. `deliver` is invoked exactly once per multicast message
  /// from any *other* member (senders do not loop back through the network;
  /// they deliver locally and synchronously to themselves).
  void add_member(NodeId node, DeliverFn deliver);

  /// Multicasts `payload` from `from` to all members (including local
  /// synchronous self-delivery). `size_bytes` sizes the on-wire frames.
  void send(NodeId from, FramePayload payload, std::uint32_t size_bytes);

  /// Entry point for frames addressed to a member of this group; the owner
  /// of the node handler must route group frames here.
  void on_frame(NodeId member, const Frame& frame);

  [[nodiscard]] std::uint64_t naks_sent() const { return naks_sent_; }
  [[nodiscard]] std::uint64_t retransmissions() const { return retransmissions_; }

 private:
  struct MemberState {
    NodeId node{};
    DeliverFn deliver;
    /// Per-sender receive state: next expected sequence and out-of-order
    /// stash.
    struct RxState {
      std::uint64_t next_expected{1};
      std::map<std::uint64_t, FramePayload> stashed;
      bool nak_scheduled{false};
      int nak_attempts{0};
      /// next_expected at the previous NAK attempt; any advance resets the
      /// attempt counter (progress is being made).
      std::uint64_t last_nak_position{0};
      /// Highest sequence this receiver knows the sender emitted (from data
      /// frames and SPMs); enables tail-loss detection.
      std::uint64_t highest_advertised{0};
      /// The (re-armed-in-place) NAK timer for this sender's stream.
      std::optional<sim::EventId> nak_event;
    };
    std::unordered_map<std::uint32_t, RxState> rx;  // keyed by sender node id
  };

  struct SenderState {
    std::uint64_t next_seq{1};
    /// Retransmission buffer: (payload, size) of the last kTransmitWindow
    /// sequences sent, [next_seq - buffer.size(), next_seq). Empty when
    /// the fabric cannot drop a frame.
    std::deque<std::pair<FramePayload, std::uint32_t>> buffer;
    int spm_remaining{0};
    bool spm_armed{false};
    /// The (re-armed-in-place) SPM advertisement timer.
    std::optional<sim::EventId> spm_event;
  };

  /// Time a receiver waits after detecting a gap before NAKing.
  static constexpr Duration kNakDelay = Duration::micros(500);
  /// Period of a sender's SPM (tail advertisement) heartbeats.
  static constexpr Duration kSpmInterval = Duration::millis(1);
  static constexpr int kSpmAttempts = 8;
  /// Sequences a sender keeps for retransmission (PGM's transmit window).
  static constexpr std::size_t kTransmitWindow = 4096;

  MemberState* find_member(NodeId node);
  void deliver_in_order(MemberState& m, NodeId sender,
                        MemberState::RxState& rx);
  void maybe_schedule_nak(MemberState& m, NodeId sender,
                          MemberState::RxState& rx);
  void on_nak_timer(NodeId member, NodeId sender);
  void arm_spm(NodeId from);
  void on_spm_timer(NodeId from);

  Network* net_;
  std::uint32_t group_id_;
  std::vector<MemberState> members_;
  std::unordered_map<std::uint32_t, SenderState> senders_;  // by node id
  std::uint64_t naks_sent_{0};
  std::uint64_t retransmissions_{0};
};

}  // namespace stopwatch::net
