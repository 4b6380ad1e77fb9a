#include "workload/file_service.hpp"

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"

namespace stopwatch::workload {

namespace {
/// Instructions to parse/handle one request.
constexpr std::uint64_t kRequestHandlingInstr = 80'000;
/// Instructions per 4 KiB of response preparation (checksums, copies).
constexpr std::uint64_t kPer4kInstr = 2'000;
/// Bytes per disk read (sequential chunks; cold start). Sized so one
/// chunk's seek + transfer stays under the default Δd (Sec. V: the
/// transfer must complete by the virtual delivery time).
constexpr std::uint32_t kDiskChunk = 192 * 1024;
}  // namespace

void FileServerProgram::on_boot(vm::GuestApi& api) {
  api_ = &api;
  env_ = std::make_unique<GuestTransportEnv>(api);
  tcp_ = std::make_unique<transport::TcpEndpoint>(*env_);
  udp_ = std::make_unique<transport::UdpEndpoint>(*env_);

  tcp_->listen([this](NodeId peer, std::uint32_t flow, std::uint32_t msg_id,
                      std::uint32_t /*msg_len*/, std::uint32_t app_tag) {
    serve_tcp(peer, flow, msg_id, app_tag);
  });
  udp_->set_message_handler([this](NodeId peer, std::uint32_t flow,
                                   std::uint32_t msg_id,
                                   std::uint32_t /*msg_len*/,
                                   std::uint32_t app_tag) {
    serve_udp(peer, flow, msg_id, app_tag);
  });
}

void FileServerProgram::on_timer_tick(vm::GuestApi&, std::uint64_t) {}

void FileServerProgram::on_packet(vm::GuestApi&, const net::Packet& pkt) {
  // UDP requests use PacketKind::kRequest / flow >= 0x8000'0000 by
  // convention; everything else is TCP.
  if (pkt.kind == net::PacketKind::kRequest ||
      (pkt.kind == net::PacketKind::kNak && pkt.flow >= 0x80000000u)) {
    udp_->on_packet(pkt);
    return;
  }
  tcp_->on_packet(pkt);
}

void FileServerProgram::read_file(std::uint32_t remaining,
                                  std::function<void()> done) {
  if (remaining == 0) {
    done();
    return;
  }
  const std::uint32_t chunk = std::min(kDiskChunk, remaining);
  api_->disk_read(chunk, [this, remaining, chunk, done = std::move(done)] {
    read_file(remaining - chunk, done);
  });
}

void FileServerProgram::serve_tcp(NodeId peer, std::uint32_t flow,
                                  std::uint32_t msg_id,
                                  std::uint32_t file_size) {
  SW_EXPECTS(file_size >= 1);
  api_->compute(kRequestHandlingInstr, [this, peer, flow, msg_id, file_size] {
    read_file(file_size, [this, peer, flow, msg_id, file_size] {
      const std::uint64_t prep = kPer4kInstr * ((file_size + 4095) / 4096) + 1;
      api_->compute(prep, [this, peer, flow, msg_id, file_size] {
        tcp_->send_message(peer, flow, msg_id, file_size, file_size);
        tcp_->close(peer, flow);
      });
    });
  });
}

void FileServerProgram::serve_udp(NodeId peer, std::uint32_t flow,
                                  std::uint32_t msg_id,
                                  std::uint32_t file_size) {
  SW_EXPECTS(file_size >= 1);
  api_->compute(kRequestHandlingInstr, [this, peer, flow, msg_id, file_size] {
    read_file(file_size, [this, peer, flow, msg_id, file_size] {
      const std::uint64_t prep = kPer4kInstr * ((file_size + 4095) / 4096) + 1;
      api_->compute(prep, [this, peer, flow, msg_id, file_size] {
        udp_->send_message(peer, flow, msg_id, file_size, file_size);
      });
    });
  });
}

FileDownloadClient::FileDownloadClient(core::Cloud& cloud,
                                       NodeId server_addr, Protocol protocol)
    : cloud_(&cloud),
      host_(cloud),
      server_(server_addr),
      protocol_(protocol) {
  tcp_ = std::make_unique<transport::TcpEndpoint>(host_);
  udp_ = std::make_unique<transport::UdpEndpoint>(host_);
  host_.add_packet_handler([this](const net::Packet& pkt) {
    if (protocol_ == Protocol::kHttpTcp) {
      tcp_->on_packet(pkt);
    } else {
      udp_->on_packet(pkt);
    }
  });

  const auto on_response = [this](NodeId peer, std::uint32_t flow,
                                  std::uint32_t msg_id, std::uint32_t,
                                  std::uint32_t) {
    if (protocol_ == Protocol::kHttpTcp) tcp_->close(peer, flow);
    const auto it = pending_.find(msg_id);
    if (it == pending_.end()) return;
    const Duration latency =
        cloud_->simulator().now() - it->second.started;
    auto done = std::move(it->second.done);
    pending_.erase(it);
    if (done) done(latency);
  };
  tcp_->set_message_handler(on_response);
  udp_->set_message_handler(on_response);
}

void FileDownloadClient::download(std::uint32_t file_size,
                                  std::function<void(Duration)> done) {
  SW_EXPECTS(file_size >= 1);
  const std::uint32_t msg_id = next_msg_++;
  pending_[msg_id] = Pending{cloud_->simulator().now(), std::move(done)};

  if (protocol_ == Protocol::kHttpTcp) {
    const std::uint32_t flow = next_flow_++;
    tcp_->connect(server_, flow,
                  [this, flow, msg_id, file_size](NodeId peer, std::uint32_t) {
                    // HTTP GET: ~200-byte request; app_tag = file size.
                    tcp_->send_message(peer, flow, msg_id, 200, file_size);
                  });
  } else {
    // Single request datagram; response streams back over UDP.
    net::Packet req;
    req.dst = server_;
    req.kind = net::PacketKind::kRequest;
    req.flow = 0x80000000u | next_flow_++;
    req.msg_id = msg_id;
    req.msg_len = 64;
    req.size_bytes = 64 + net::kHeaderBytes;
    req.app_tag = file_size;
    host_.send(req);
  }
}

}  // namespace stopwatch::workload
