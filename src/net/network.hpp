// The simulated network: nodes joined by links with latency, jitter,
// serialization delay (bandwidth), and loss.
//
// Topology used by StopWatch experiments: cloud machines, the ingress and
// egress nodes, and external clients all attach here. One default link
// models intra-cloud traffic; a node link overrides it for all traffic of
// one node (e.g., a slow "wireless client" hop as in the paper's
// evaluation).
//
// add_node is the one way to make a node. Its NodeId is a dense handle in
// build order and feeds no randomness: the node's stochastic stream (loss,
// jitter) is forked from the fabric seed by the caller's stream key, which
// names what the node is (node_key: a role and an index within it). So the
// draws a node sees do not depend on how many nodes were built before it,
// or in what order — a cloud builds nodes only for the few endpoints it
// runs, in whatever order it first needs them.
//
// Shard awareness: the fabric runs on a sim::ShardedSimulator and every
// node has an owner shard (default 0). A frame between same-owner nodes
// is scheduled directly on the owner's core, while a frame crossing
// shards goes through the kernel's deterministic (source shard,
// destination shard) lanes. Draws come from the sending node's own stream,
// so the sequence a node sees is a function of its own traffic only, never
// of global send interleaving. That is what keeps an N-shard run
// byte-identical to a one-shard run.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <unordered_set>
#include <variant>

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

/// What a cloud node is: the role half of its stream key (node_key).
enum class NodeRole : std::uint32_t {
  kEgress = 1,
  kVmAddress,  ///< a VM's logical address, which is its ingress entry
  kMachine,
  kExternal,   ///< indexed in registration order
};

/// The stream key of node `index` of `role`: distinct for every (role,
/// index) pair.
[[nodiscard]] constexpr std::uint64_t node_key(NodeRole role,
                                               std::uint32_t index) {
  return (std::uint64_t{static_cast<std::uint32_t>(role)} << 32) | index;
}

/// The network fabric. Owns no node logic; nodes register handlers.
class Network {
 public:
  using Handler = std::function<void(const Frame&)>;

  /// Same-owner traffic schedules on the owner's core of `kernel`,
  /// cross-owner traffic through its merge lanes. The kernel must outlive
  /// the fabric.
  Network(sim::ShardedSimulator& kernel, Rng rng)
      : kernel_(&kernel), rng_(std::move(rng)) {}

  /// Builds a node whose stochastic stream is forked from the fabric seed
  /// by `stream_key`; `handler` is invoked on frame arrival. A key names
  /// at most one node: reusing one is a contract violation. Returns the
  /// next dense NodeId.
  NodeId add_node(std::uint64_t stream_key, Handler handler);

  /// Assigns the shard that owns a node's events (default 0). Must not be
  /// called while the kernel is mid-window.
  void set_node_owner(NodeId node, int shard);

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
  /// (multicast retransmission buffers, SPM heartbeats and NAK timers)
  /// runs only when it holds: on a fabric that cannot lose a frame there
  /// is nothing to repair. Final once the first frame is sent — a lossy
  /// link or a drop hook installed after that is a contract violation,
  /// since the frames already sent kept no retransmission copy.
  [[nodiscard]] bool may_drop() const { return may_drop_; }

  /// Sends a frame; delivery is scheduled on the simulator. Returns false if
  /// the frame was dropped by the drop hook or the loss model.
  bool send(Frame frame);

  /// Nodes built so far.
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
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
    /// node sends. Forked from the fabric RNG by the node's stream key, so
    /// the stream is independent of other nodes' traffic (and of shard
    /// count and build order).
    Rng rng;
    /// Shard whose core runs this node's events.
    int owner{0};
  };

  [[nodiscard]] const LinkModel& link_for(NodeId src, NodeId dst) const;
  /// Sets may_drop_ when `drops`, which must precede the first send.
  void note_may_drop(bool drops);
  /// The record of `id` (contract violation if no such node).
  Node& node(NodeId id);

  sim::ShardedSimulator* kernel_;
  Rng rng_;
  /// Indexed by NodeId. A deque never moves its elements, so a running
  /// handler stays valid through the nodes a delivery may add.
  std::deque<Node> nodes_;
  std::unordered_set<std::uint64_t> stream_keys_;
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
