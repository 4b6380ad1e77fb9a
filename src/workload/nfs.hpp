// NFS workload (paper Sec. VII-C, Fig. 6).
//
// Guest side: an NFSv4-like server over TCP whose request handlers mix pure
// CPU work (getattr/lookup) with disk I/O (read on cache miss, write/
// setattr/create). Client side: an nhfsstone-like open-loop generator —
// five client processes issuing operations at a constant aggregate rate
// with the paper's measured operation mix:
//   11.37% setattr, 24.07% lookup, 11.92% write, 7.93% getattr,
//   32.34% read, 12.37% create.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "transport/tcp.hpp"
#include "vm/guest.hpp"
#include "workload/external_host.hpp"
#include "workload/guest_env.hpp"

namespace stopwatch::workload {

enum class NfsOp : std::uint32_t {
  kSetattr = 1,
  kLookup = 2,
  kWrite = 3,
  kGetattr = 4,
  kRead = 5,
  kCreate = 6,
};

/// One (op, probability) entry of the operation mix.
struct NfsMixEntry {
  NfsOp op;
  double weight;
};

/// The paper's extracted mix (Sec. VII-C footnote 6).
[[nodiscard]] std::vector<NfsMixEntry> paper_nfs_mix();

/// Guest program: the NFS server.
class NfsServerProgram final : public vm::GuestProgram {
 public:
  void on_boot(vm::GuestApi& api) override;
  void on_timer_tick(vm::GuestApi&, std::uint64_t) override {}
  void on_packet(vm::GuestApi&, const net::Packet& pkt) override;

 private:
  void handle(NodeId peer, std::uint32_t flow, std::uint32_t msg_id, NfsOp op);
  void respond(NodeId peer, std::uint32_t flow, std::uint32_t msg_id,
               std::uint32_t bytes, NfsOp op);

  vm::GuestApi* api_{nullptr};
  std::unique_ptr<GuestTransportEnv> env_;
  std::unique_ptr<transport::TcpEndpoint> tcp_;
};

/// nhfsstone-like load generator: `processes` client processes sharing one
/// external host, issuing ops open-loop at `rate_per_second` total.
class NfsLoadGenerator {
 public:
  NfsLoadGenerator(core::Cloud& cloud, NodeId server, int processes,
                   double rate_per_second, std::vector<NfsMixEntry> mix,
                   std::uint64_t seed);

  /// Connects all processes, then begins issuing after `warmup`.
  void start(Duration warmup = Duration::millis(50));

  /// Stops issuing new operations (in-flight operations still complete).
  /// Lets leakage windows run several single-op generators back to back
  /// without their load bleeding across window boundaries.
  void stop() { issuing_ = false; }

  [[nodiscard]] const std::vector<double>& latencies_ms() const {
    return latencies_ms_;
  }
  [[nodiscard]] std::uint64_t ops_issued() const { return ops_issued_; }
  [[nodiscard]] std::uint64_t ops_completed() const { return ops_completed_; }
  [[nodiscard]] const transport::TcpStats& tcp_stats() const {
    return tcp_->stats();
  }

 private:
  void schedule_next_op(int process);
  void issue_op(int process);
  [[nodiscard]] NfsOp sample_op();
  [[nodiscard]] static std::uint32_t request_bytes(NfsOp op);

  core::Cloud* cloud_;
  ExternalHost host_;
  NodeId server_;
  int processes_;
  double rate_per_second_;
  std::vector<NfsMixEntry> mix_;
  double mix_total_{0.0};
  Rng rng_;
  std::unique_ptr<transport::TcpEndpoint> tcp_;
  std::uint32_t next_msg_{1};
  std::map<std::uint32_t, RealTime> inflight_;  // msg_id -> issue time
  std::vector<double> latencies_ms_;
  std::uint64_t ops_issued_{0};
  std::uint64_t ops_completed_{0};
  int connected_{0};
  bool issuing_{false};
  /// Per-process issue timers (one re-armed arena slot each).
  std::vector<std::optional<sim::EventId>> op_events_;
};

}  // namespace stopwatch::workload
