#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
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

NodeId Network::add_node(Handler handler) {
  const NodeId id = reserve_node();
  bind_node(id, std::move(handler));
  return id;
}

NodeId Network::reserve_node() {
  SW_EXPECTS(!kernel_->running());
  return NodeId{issued_++};
}

void Network::bind_node(NodeId id, Handler handler) {
  SW_EXPECTS(!kernel_->running());
  SW_EXPECTS(id.value < issued_);
  const std::size_t page = id.value >> kPageBits;
  if (pages_.size() <= page) pages_.resize(page + 1);
  if (pages_[page] == nullptr) pages_[page] = std::make_unique<Page>();
  std::optional<Node>& slot = (*pages_[page])[id.value & (kPageSize - 1)];
  SW_EXPECTS(!slot.has_value());
  slot.emplace(
      Node{std::move(handler), RealTime{}, rng_.fork(id.value), 0});
}

void Network::set_unbound_handler(Handler handler) {
  unbound_handler_ = std::move(handler);
}

void Network::set_node_owner(NodeId node_id, int shard) {
  SW_EXPECTS(!kernel_->running());
  SW_EXPECTS(shard >= 0 && shard < kernel_->shard_count());
  node(node_id).owner = shard;
}

void Network::set_node_link(NodeId node_id, LinkModel model) {
  SW_EXPECTS(node_id.value < issued_);
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

const Network::Node* Network::find(NodeId id) const {
  const std::size_t page = id.value >> kPageBits;
  if (page >= pages_.size() || pages_[page] == nullptr) return nullptr;
  const std::optional<Node>& slot = (*pages_[page])[id.value & (kPageSize - 1)];
  return slot.has_value() ? &*slot : nullptr;
}

Network::Node* Network::find(NodeId id) {
  return const_cast<Node*>(std::as_const(*this).find(id));
}

Network::Node& Network::node(NodeId id) {
  Node* n = find(id);
  SW_EXPECTS(n != nullptr);
  return *n;
}

bool Network::send(Frame frame) {
  Node& src = node(frame.src);
  // A reserved ID without a record routes to the unbound handler on
  // owner 0; the choice is made here, once, for the frame's whole flight.
  const Node* dst = find(frame.dst);
  SW_EXPECTS(dst != nullptr ? dst->handler != nullptr
                            : frame.dst.value < issued_ &&
                                  unbound_handler_ != nullptr);
  const bool unbound = dst == nullptr;
  const int dst_owner = unbound ? 0 : dst->owner;

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
  sim::Task deliver([this, dst_id, unbound,
                     f = std::make_unique<Frame>(std::move(frame))]() {
    if (unbound) {
      unbound_handler_(*f);
      return;
    }
    // Records live in pages that never move, so the running handler
    // survives the new nodes it may bind mid-delivery.
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
