#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

namespace stopwatch::net {

namespace {
/// Lower clamp for the lognormal jitter multiplier: a 6-sigma tail event
/// (~1e-9 per frame), observationally a no-op, but it turns the link's
/// statistical latency into the hard floor conservative parallel
/// execution needs.
double jitter_floor(double sigma) { return std::exp(-6.0 * sigma); }
}  // namespace

Duration LinkModel::min_latency() const {
  if (jitter_sigma <= 0.0) return base_latency;
  return Duration::from_seconds_f(base_latency.to_seconds() *
                                  jitter_floor(jitter_sigma));
}

NodeId Network::add_node(std::uint64_t stream_key, Handler handler) {
  SW_EXPECTS(!kernel_->running());
  SW_EXPECTS(handler != nullptr);
  const bool fresh = stream_keys_.insert(stream_key).second;
  SW_EXPECTS_MSG(fresh, "Network::add_node: stream key (role " +
                            std::to_string(stream_key >> 32) + ", index " +
                            std::to_string(stream_key & 0xFFFFFFFFu) +
                            ") already names a node");
  nodes_.push_back(
      Node{std::move(handler), RealTime{}, rng_.fork(stream_key), 0});
  return NodeId{static_cast<std::uint32_t>(nodes_.size() - 1)};
}

void Network::set_node_owner(NodeId node_id, int shard) {
  SW_EXPECTS(!kernel_->running());
  SW_EXPECTS(shard >= 0 && shard < kernel_->shard_count());
  node(node_id).owner = shard;
}

void Network::set_node_link(NodeId node_id, LinkModel model) {
  SW_EXPECTS(node_id.value < nodes_.size());
  note_may_drop(model.loss_probability > 0.0);
  node_links_[node_id.value] = model;
}

void Network::set_default_link(LinkModel model) {
  note_may_drop(model.loss_probability > 0.0);
  default_link_ = model;
}

void Network::set_drop_hook(std::function<bool(const Frame&)> hook) {
  note_may_drop(hook != nullptr);
  drop_hook_ = std::move(hook);
}

void Network::note_may_drop(bool drops) {
  if (!drops || may_drop_) return;
  SW_EXPECTS_MSG(
      std::ranges::none_of(frames_by_class_,
                           [](const auto& sent) {
                             return sent.load(std::memory_order_relaxed) != 0;
                           }),
      "Network::may_drop() is final once a frame has been sent: install "
      "lossy links and drop hooks before the first send");
  may_drop_ = true;
}

const LinkModel& Network::link_for(NodeId src, NodeId dst) const {
  const auto src_it = node_links_.find(src.value);
  if (src_it != node_links_.end()) return src_it->second;
  const auto dst_it = node_links_.find(dst.value);
  if (dst_it != node_links_.end()) return dst_it->second;
  return default_link_;
}

Network::Node& Network::node(NodeId id) {
  SW_EXPECTS(id.value < nodes_.size());
  return nodes_[id.value];
}

bool Network::send(Frame frame) {
  Node& src = node(frame.src);
  const int dst_owner = node(frame.dst).owner;

  const LinkModel& link = link_for(frame.src, frame.dst);
  // All mutable state touched on the send path (src tx_free, src rng)
  // belongs to the source node, and send() runs on the source owner's
  // core — shard-confined by construction. The destination is
  // only reached by the delivery task below, on the destination's core.
  sim::Simulator& src_core = kernel_->shard(src.owner);

  frames_by_class_[frame.payload.index()].fetch_add(
      1, std::memory_order_relaxed);
  if (bytes_hist_ != nullptr) bytes_hist_->record(frame.size_bytes);

  if ((drop_hook_ && drop_hook_(frame)) ||
      (link.loss_probability > 0.0 && src.rng.chance(link.loss_probability))) {
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  // Serialization: the sender's uplink transmits frames back to back.
  const auto serialization = Duration::from_seconds_f(
      static_cast<double>(frame.size_bytes) / link.bytes_per_second);
  const RealTime tx_start =
      src.tx_free.ns > src_core.now().ns ? src.tx_free : src_core.now();
  const RealTime tx_done = tx_start + serialization;
  src.tx_free = tx_done;

  // Propagation + jitter (clamped below — see LinkModel::min_latency).
  double jitter = 1.0;
  if (link.jitter_sigma > 0.0) {
    jitter = std::max(src.rng.lognormal(0.0, link.jitter_sigma),
                      jitter_floor(link.jitter_sigma));
  }
  const auto prop =
      Duration::from_seconds_f(link.base_latency.to_seconds() * jitter);

  const RealTime arrival = tx_done + prop;
  const NodeId dst_id = frame.dst;
  // The frame (with its variant payload) is too big for the event record's
  // inline buffer, so it is boxed: the delivery task itself — pointer +
  // destination — stays inline in the slab, and the frame costs the one
  // heap allocation it always did.
  sim::Task deliver([this, dst_id,
                     f = std::make_unique<Frame>(std::move(frame))]() {
    node(dst_id).handler(*f);
  });
  if (dst_owner != src.owner) {
    kernel_->cross_schedule(src.owner, dst_owner, arrival, std::move(deliver));
  } else {
    src_core.schedule_at(arrival, std::move(deliver));
  }
  return true;
}

}  // namespace stopwatch::net
