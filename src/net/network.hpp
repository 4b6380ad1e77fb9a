// The simulated network: nodes joined by links with latency, jitter,
// serialization delay (bandwidth), and loss.
//
// Topology used by StopWatch experiments: cloud machines, the ingress and
// egress nodes, and external clients all attach here. One default link
// models intra-cloud traffic; a node link overrides it for all traffic of
// one node (e.g., a slow "wireless client" hop as in the paper's
// evaluation).
//
// An address may exist before its node does: reserve_node issues a dense
// NodeId and builds nothing, bind_node builds the record later, and frames
// to a reserved ID that is still unbound go to one fabric-wide handler.
// That is what lets a cloud register hundreds of thousands of addresses
// and build nodes only for the few it runs.
//
// Shard awareness: the fabric runs on a sim::ShardedSimulator and every
// node has an owner shard (default 0). A frame between same-owner nodes
// is scheduled directly on the owner's core, while a frame crossing
// shards goes through the kernel's deterministic (source shard,
// destination shard) lanes. Stochastic draws (loss, jitter) come from a
// per-node RNG stream forked from the fabric seed by node id — so the
// draw sequence a node sees is a function of its own traffic only, never
// of global send interleaving. That is what keeps an N-shard run
// byte-identical to a one-shard run.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "common/contracts.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "net/frame.hpp"
#include "obs/metrics.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

namespace stopwatch::net {

/// Link behaviour between a pair of nodes (per direction).
struct LinkModel {
  /// Fixed propagation delay.
  Duration base_latency{Duration::micros(100)};
  /// Lognormal jitter: multiplier exp(N(0, sigma)) applied to base latency.
  /// The multiplier is clamped below at exp(-6 sigma) — a ~1e-9 tail event
  /// — which gives every link a hard latency floor of
  /// base_latency * exp(-6 sigma), the lookahead bound the sharded
  /// simulator's barrier window relies on.
  double jitter_sigma{0.1};
  /// Link rate in bytes per second (serialization delay = size / rate).
  double bytes_per_second{125e6};  // 1 Gbps
  /// Independent per-frame loss probability.
  double loss_probability{0.0};

  /// Guaranteed minimum propagation delay under the jitter clamp.
  [[nodiscard]] Duration min_latency() const;
};

/// The network fabric. Owns no node logic; nodes register handlers.
class Network {
 public:
  using Handler = std::function<void(const Frame&)>;

  /// Same-owner traffic schedules on the owner's core of `kernel`,
  /// cross-owner traffic through its merge lanes. The kernel must outlive
  /// the fabric.
  Network(sim::ShardedSimulator& kernel, Rng rng)
      : kernel_(&kernel), rng_(std::move(rng)) {}

  /// Registers a node; the handler is invoked on frame arrival. Same as
  /// bind_node(reserve_node(), handler).
  NodeId add_node(Handler handler);

  /// Issues the next dense NodeId without building its record: a reserved
  /// ID is an address that costs nothing until bind_node. Frames sent to
  /// it before then go to the unbound handler.
  NodeId reserve_node();

  /// Builds the record of a reserved, not yet bound `id`. Its stochastic
  /// stream is forked by `id` exactly as add_node would have at
  /// reservation time, so a late-bound node draws the jitter it would have
  /// drawn had it been built eagerly. Reserving first is also how a
  /// handler captures its own node's ID.
  void bind_node(NodeId id, Handler handler);

  /// True once `id` has a record (add_node, or reserve_node + bind_node).
  [[nodiscard]] bool is_bound(NodeId id) const { return find(id) != nullptr; }

  /// Receives every frame sent to a reserved ID that was unbound at send
  /// time, delivered on owner 0 at the frame's arrival instant (frame.dst
  /// names the ID). No record is built for it. Sending to an unbound ID
  /// without this handler installed is a contract violation.
  void set_unbound_handler(Handler handler);

  /// Assigns the shard that owns a node's events (default 0). Must not be
  /// called while the kernel is mid-window.
  void set_node_owner(NodeId node, int shard);
  [[nodiscard]] int node_owner(NodeId node_id) const {
    return node(node_id).owner;
  }

  /// Model for any frame with `node` as source or destination. One entry
  /// covers a node's traffic with the whole cloud — O(1) state instead of
  /// a per-pair entry against every VM, which is what lets a 40k-VM
  /// topology wire an external client without dense fan-out. Resolution
  /// order: source node link, then destination node link, then the
  /// default.
  void set_node_link(NodeId node, LinkModel model);
  /// Model for frames between nodes without a node link.
  void set_default_link(LinkModel model);

  /// Installs a predicate that send() consults before the loss draw; a
  /// frame it returns true for is dropped as if lost on the wire. A test
  /// seam, with no scenario caller: it injects targeted losses (a specific
  /// sequence, a NAK) that a loss probability cannot express. It runs on
  /// the sending node's shard, concurrently with other shards' sends.
  void set_drop_hook(std::function<bool(const Frame&)> hook);

  /// True once any registered link model has loss_probability > 0 or a
  /// drop hook has been installed; never reverts. Reliability machinery
  /// (multicast SPM heartbeats and NAK timers) arms only when it holds:
  /// on a fabric that cannot lose a frame there is nothing to repair.
  [[nodiscard]] bool may_drop() const { return may_drop_; }

  /// Minimum guaranteed latency over every link model registered so far
  /// (node links and the default) — the lookahead bound: no frame sent at
  /// t can arrive before t + min_latency_floor(). The sharded barrier
  /// window must not exceed it.
  [[nodiscard]] Duration min_latency_floor() const;

  /// Sends a frame; delivery is scheduled on the simulator. Returns false if
  /// the frame was dropped by the drop hook or the loss model.
  bool send(Frame frame);

  /// IDs issued so far, bound or not.
  [[nodiscard]] std::size_t node_count() const { return issued_; }
  /// The simulator core that owns a node's events.
  [[nodiscard]] sim::Simulator& simulator_for(NodeId node_id) {
    return kernel_->shard(node(node_id).owner);
  }

  /// Total frames dropped by the drop hook and loss models (diagnostics).
  [[nodiscard]] std::uint64_t frames_dropped() const {
    return frames_dropped_.load(std::memory_order_relaxed);
  }

  /// Number of FramePayload alternatives — the frame-class axis of the
  /// per-class send counters.
  static constexpr std::size_t kFrameClasses =
      std::variant_size_v<FramePayload>;

  /// Frames sent carrying the payload alternative at `payload_index`
  /// (the FramePayload variant index). Includes frames later dropped by
  /// the drop hook or the loss model — the counter classifies offered
  /// traffic.
  [[nodiscard]] std::uint64_t frames_sent_of_class(
      std::size_t payload_index) const {
    SW_EXPECTS(payload_index < kFrameClasses);
    return frames_by_class_[payload_index].load(std::memory_order_relaxed);
  }

  /// Installs (or, with nullptr, removes) a histogram receiving every
  /// sent frame's size in bytes. The histogram's commutative atomic
  /// buckets are what make one shared instance safe here: send() runs
  /// concurrently on different shards' workers.
  void set_bytes_histogram(obs::Histogram* hist) { bytes_hist_ = hist; }

 private:
  struct Node {
    Handler handler;
    /// Earliest time the node's uplink is free (serialization queueing).
    RealTime tx_free{};
    /// Per-node stochastic stream: loss and jitter draws for frames this
    /// node sends. Forked from the fabric RNG by node id, so the stream
    /// is independent of other nodes' traffic (and of shard count).
    Rng rng;
    /// Shard whose core runs this node's events.
    int owner{0};
  };

  [[nodiscard]] const LinkModel& link_for(NodeId src, NodeId dst) const;
  void note_link(const LinkModel& model) {
    may_drop_ = may_drop_ || model.loss_probability > 0.0;
  }
  /// The record of `id`, or null while it is reserved but unbound.
  [[nodiscard]] Node* find(NodeId id);
  [[nodiscard]] const Node* find(NodeId id) const;
  /// The record of a bound `id` (contract violation otherwise).
  Node& node(NodeId id);
  const Node& node(NodeId id) const;

  /// Records live in fixed-size pages, allocated on the first bind into
  /// them, so a reserved ID costs no record. A page never moves once
  /// built: handlers may bind new nodes mid-delivery (a machine shard
  /// first touched by a running scenario), and the executing node — and
  /// its handler — stays reference-stable through that.
  static constexpr std::uint32_t kPageBits = 6;
  static constexpr std::uint32_t kPageSize = 1u << kPageBits;
  using Page = std::array<std::optional<Node>, kPageSize>;

  sim::ShardedSimulator* kernel_;
  Rng rng_;
  std::vector<std::unique_ptr<Page>> pages_;
  std::uint32_t issued_{0};
  Handler unbound_handler_;
  std::map<std::uint32_t, LinkModel> node_links_;
  LinkModel default_link_{};
  std::function<bool(const Frame&)> drop_hook_;
  bool may_drop_{false};
  /// Atomic: loss draws happen on the owning shard's worker, and two
  /// shards can drop concurrently within a window.
  std::atomic<std::uint64_t> frames_dropped_{0};
  /// Per-payload-class send counts (same concurrency story as above).
  std::array<std::atomic<std::uint64_t>, kFrameClasses> frames_by_class_{};
  obs::Histogram* bytes_hist_{nullptr};
};

}  // namespace stopwatch::net
