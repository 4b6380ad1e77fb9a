#include "workload/nfs.hpp"

#include <utility>

#include "common/contracts.hpp"

namespace stopwatch::workload {

namespace {
constexpr std::uint64_t kRpcParseInstr = 50'000;
constexpr std::uint64_t kMetadataInstr = 120'000;
constexpr std::uint32_t kReadBytes = 8192;
constexpr std::uint32_t kWriteBytes = 8192;
/// Probability a read misses the page cache and touches disk.
constexpr double kReadMissRate = 0.25;
}  // namespace

std::vector<NfsMixEntry> paper_nfs_mix() {
  return {
      {NfsOp::kSetattr, 0.1137}, {NfsOp::kLookup, 0.2407},
      {NfsOp::kWrite, 0.1192},   {NfsOp::kGetattr, 0.0793},
      {NfsOp::kRead, 0.3234},    {NfsOp::kCreate, 0.1237},
  };
}

void NfsServerProgram::on_boot(vm::GuestApi& api) {
  api_ = &api;
  env_ = std::make_unique<GuestTransportEnv>(api);
  tcp_ = std::make_unique<transport::TcpEndpoint>(*env_);
  tcp_->listen([this](NodeId peer, std::uint32_t flow, std::uint32_t msg_id,
                      std::uint32_t /*len*/, std::uint32_t app_tag) {
    handle(peer, flow, msg_id, static_cast<NfsOp>(app_tag));
  });
}

void NfsServerProgram::on_packet(vm::GuestApi&, const net::Packet& pkt) {
  tcp_->on_packet(pkt);
}

void NfsServerProgram::respond(NodeId peer, std::uint32_t flow,
                               std::uint32_t msg_id, std::uint32_t bytes,
                               NfsOp op) {
  tcp_->send_message(peer, flow, msg_id, bytes,
                     static_cast<std::uint32_t>(op));
}

void NfsServerProgram::handle(NodeId peer, std::uint32_t flow,
                              std::uint32_t msg_id, NfsOp op) {
  api_->compute(kRpcParseInstr, [this, peer, flow, msg_id, op] {
    switch (op) {
      case NfsOp::kGetattr:
        api_->compute(kMetadataInstr, [this, peer, flow, msg_id, op] {
          respond(peer, flow, msg_id, 128, op);
        });
        return;
      case NfsOp::kLookup:
        api_->compute(kMetadataInstr, [this, peer, flow, msg_id, op] {
          respond(peer, flow, msg_id, 256, op);
        });
        return;
      case NfsOp::kRead: {
        const bool miss = api_->det_rng().chance(kReadMissRate);
        if (miss) {
          api_->disk_read(kReadBytes, [this, peer, flow, msg_id, op] {
            respond(peer, flow, msg_id, kReadBytes + 128, op);
          });
        } else {
          api_->compute(kMetadataInstr, [this, peer, flow, msg_id, op] {
            respond(peer, flow, msg_id, kReadBytes + 128, op);
          });
        }
        return;
      }
      // Write-back caching: the mutating ops are acknowledged once their
      // disk write is queued (it still raises its completion interrupt).
      case NfsOp::kWrite:
        api_->disk_write(kWriteBytes, [] {});
        api_->compute(kMetadataInstr, [this, peer, flow, msg_id, op] {
          respond(peer, flow, msg_id, 136, op);
        });
        return;
      case NfsOp::kSetattr:
        api_->disk_write(512, [] {});
        api_->compute(kMetadataInstr, [this, peer, flow, msg_id, op] {
          respond(peer, flow, msg_id, 128, op);
        });
        return;
      case NfsOp::kCreate:
        api_->disk_write(1024, [] {});
        api_->compute(kMetadataInstr, [this, peer, flow, msg_id, op] {
          respond(peer, flow, msg_id, 160, op);
        });
        return;
    }
  });
}

NfsLoadGenerator::NfsLoadGenerator(core::Cloud& cloud, NodeId server,
                                   int processes, double rate_per_second,
                                   std::vector<NfsMixEntry> mix,
                                   std::uint64_t seed)
    : cloud_(&cloud),
      host_(cloud),
      server_(server),
      processes_(processes),
      rate_per_second_(rate_per_second),
      mix_(std::move(mix)),
      rng_(seed) {
  SW_EXPECTS(processes_ >= 1);
  SW_EXPECTS(rate_per_second_ > 0.0);
  SW_EXPECTS(!mix_.empty());
  op_events_.resize(static_cast<std::size_t>(processes_));
  for (const auto& e : mix_) mix_total_ += e.weight;

  tcp_ = std::make_unique<transport::TcpEndpoint>(host_);
  host_.add_packet_handler(
      [this](const net::Packet& pkt) { tcp_->on_packet(pkt); });
  tcp_->set_message_handler([this](NodeId, std::uint32_t, std::uint32_t msg_id,
                                   std::uint32_t, std::uint32_t) {
    const auto it = inflight_.find(msg_id);
    if (it == inflight_.end()) return;
    latencies_ms_.push_back(
        (cloud_->simulator().now() - it->second).to_seconds() * 1e3);
    inflight_.erase(it);
    ++ops_completed_;
  });
}

void NfsLoadGenerator::start(Duration warmup) {
  for (int p = 0; p < processes_; ++p) {
    tcp_->connect(server_, static_cast<std::uint32_t>(p + 1),
                  [this, warmup](NodeId, std::uint32_t) {
                    if (++connected_ == processes_) {
                      issuing_ = true;
                      cloud_->simulator().schedule_after(warmup, [this] {
                        for (int q = 0; q < processes_; ++q) {
                          schedule_next_op(q);
                        }
                      });
                    }
                  });
  }
}

NfsOp NfsLoadGenerator::sample_op() {
  double u = rng_.uniform(0.0, mix_total_);
  for (const auto& e : mix_) {
    if (u < e.weight) return e.op;
    u -= e.weight;
  }
  return mix_.back().op;
}

std::uint32_t NfsLoadGenerator::request_bytes(NfsOp op) {
  switch (op) {
    case NfsOp::kWrite:
      return 8192 + 160;  // payload + RPC header
    case NfsOp::kCreate:
      return 320;
    default:
      return 160;
  }
}

void NfsLoadGenerator::schedule_next_op(int process) {
  const double per_process_rate = rate_per_second_ / processes_;
  const double wait_s = rng_.exponential(per_process_rate);
  const Duration wait = Duration::from_seconds_f(wait_s);
  auto& ev = op_events_[static_cast<std::size_t>(process)];
  sim::Simulator& sim = cloud_->simulator();
  if (ev && sim.is_executing(*ev)) {
    // Called from the tail of this process's own op event: the open-loop
    // issue chain re-arms one arena slot per process.
    sim.reschedule_after(*ev, wait);
  } else {
    ev = sim.schedule_after(wait, [this, process] { issue_op(process); });
  }
}

void NfsLoadGenerator::issue_op(int process) {
  if (!issuing_) return;
  const NfsOp op = sample_op();
  const std::uint32_t msg_id = next_msg_++;
  inflight_[msg_id] = cloud_->simulator().now();
  ++ops_issued_;
  tcp_->send_message(server_, static_cast<std::uint32_t>(process + 1), msg_id,
                     request_bytes(op), static_cast<std::uint32_t>(op));
  schedule_next_op(process);
}

}  // namespace stopwatch::workload
