// External endpoints (clients, collectors) attached to the cloud over the
// client link — the paper's "Lenovo T400 on campus wireless".
#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/cloud.hpp"
#include "transport/env.hpp"

namespace stopwatch::workload {

/// A host outside the cloud: owns a network address, real-time timers, and
/// a packet dispatch point that transports and application code share.
class ExternalHost final : public transport::TransportEnv {
 public:
  using PacketHandler = std::function<void(const net::Packet&)>;

  explicit ExternalHost(core::Cloud& cloud) : cloud_(&cloud) {
    addr_ = cloud_->add_external_node([this](const net::Packet& pkt) {
      for (const auto& h : handlers_) h(pkt);
    });
  }

  ExternalHost(const ExternalHost&) = delete;
  ExternalHost& operator=(const ExternalHost&) = delete;

  /// Registers a packet consumer (e.g., a TcpEndpoint's on_packet).
  void add_packet_handler(PacketHandler h) {
    handlers_.push_back(std::move(h));
  }

  // TransportEnv:
  void send(net::Packet pkt) override { cloud_->send_external(addr_, pkt); }
  void set_timer(Duration delay, std::function<void()> cb) override {
    // The std::function itself (32 bytes) rides the event record's inline
    // buffer; only captures beyond the function's own SBO still allocate.
    cloud_->simulator().schedule_after(delay, std::move(cb));
  }
  [[nodiscard]] std::int64_t now_ns() const override {
    return cloud_->simulator().now().ns;
  }
  [[nodiscard]] NodeId local_addr() const override { return addr_; }

 private:
  core::Cloud* cloud_;
  NodeId addr_{};
  std::vector<PacketHandler> handlers_;
};

}  // namespace stopwatch::workload
