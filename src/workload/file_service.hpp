// File-download service (paper Sec. VII-C, Fig. 5).
//
// Guest side: an Apache-like server exposing the same files over an
// HTTP-like request/response protocol on TCP, and a UDP variant that
// streams the file after a single request datagram (the paper's
// demonstration that StopWatch's cost is dominated by inbound packets).
// Cold start: every request reads the file from the emulated disk.
//
// Client side: an external downloader that measures total retrieval time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "transport/tcp.hpp"
#include "transport/udp.hpp"
#include "vm/guest.hpp"
#include "workload/external_host.hpp"
#include "workload/guest_env.hpp"

namespace stopwatch::workload {

/// Guest program: serves files over both TCP (HTTP-like) and UDP.
/// A request's app_tag carries the requested file size in bytes.
class FileServerProgram final : public vm::GuestProgram {
 public:
  void on_boot(vm::GuestApi& api) override;
  void on_timer_tick(vm::GuestApi& api, std::uint64_t tick) override;
  void on_packet(vm::GuestApi& api, const net::Packet& pkt) override;

  /// The HTTP endpoint, valid after boot.
  [[nodiscard]] const transport::TcpEndpoint& tcp() const { return *tcp_; }

 private:
  void serve_tcp(NodeId peer, std::uint32_t flow, std::uint32_t msg_id,
                 std::uint32_t file_size);
  void serve_udp(NodeId peer, std::uint32_t flow, std::uint32_t msg_id,
                 std::uint32_t file_size);
  /// Reads `remaining` bytes in chunks, then runs `done`.
  void read_file(std::uint32_t remaining, std::function<void()> done);

  vm::GuestApi* api_{nullptr};
  std::unique_ptr<GuestTransportEnv> env_;
  std::unique_ptr<transport::TcpEndpoint> tcp_;
  std::unique_ptr<transport::UdpEndpoint> udp_;
};

/// External client that downloads one file and reports the latency.
class FileDownloadClient {
 public:
  enum class Protocol { kHttpTcp, kUdp };

  FileDownloadClient(core::Cloud& cloud, NodeId server_addr,
                     Protocol protocol);

  /// Starts one download of `file_size` bytes; `done(latency)` fires on
  /// completion. Each download uses a fresh flow (a fresh TCP connection
  /// — cold start, as in the paper), released on both ends once the
  /// download completes.
  void download(std::uint32_t file_size, std::function<void(Duration)> done);

  [[nodiscard]] const transport::TcpEndpoint& tcp() const { return *tcp_; }

 private:
  core::Cloud* cloud_;
  ExternalHost host_;
  NodeId server_;
  Protocol protocol_;
  std::unique_ptr<transport::TcpEndpoint> tcp_;
  std::unique_ptr<transport::UdpEndpoint> udp_;
  std::uint32_t next_flow_{1};
  std::uint32_t next_msg_{1};

  struct Pending {
    RealTime started{};
    std::function<void(Duration)> done;
  };
  std::map<std::uint32_t, Pending> pending_;  // by msg_id
};

}  // namespace stopwatch::workload
