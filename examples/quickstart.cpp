// Quickstart: a 3-replica StopWatch cloud in ~60 lines.
//
// Build a cloud, add one guest VM (replicated across three machines), send
// it a packet from an external client, and watch the reply come back
// through the egress node with median timing. Run:
//
//   ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "core/cloud.hpp"

using namespace stopwatch;

namespace {

/// A guest that echoes every request back to its sender.
class EchoProgram final : public vm::GuestProgram {
 public:
  void on_boot(vm::GuestApi&) override {}
  void on_timer_tick(vm::GuestApi&, std::uint64_t) override {}
  void on_packet(vm::GuestApi& api, const net::Packet& pkt) override {
    std::printf("  [guest] request %llu delivered at virtual %.3f ms\n",
                static_cast<unsigned long long>(pkt.seq),
                api.now().to_millis());
    net::Packet reply;
    reply.dst = pkt.src;
    reply.seq = pkt.seq;
    reply.size_bytes = 100;
    api.send_packet(reply);
  }
};

}  // namespace

int main() {
  // A cloud of three machines running the StopWatch hypervisor.
  core::CloudConfig cfg;
  cfg.seed = 2013;
  cfg.policy = core::PolicyKind::kStopWatch;  // try kBaselineXen for comparison
  cfg.machine_count = 3;
  core::Cloud cloud(cfg);

  // One guest VM; StopWatch transparently runs three replicas. (Only one
  // replica's printout appears interleaved below — all three execute the
  // same deterministic program.)
  const core::VmHandle vm = cloud.add_vm(
      "echo", [] { return std::make_unique<EchoProgram>(); }, {0, 1, 2});

  // An external client.
  const NodeId client = cloud.add_external_node([&cloud](
                                                     const net::Packet& pkt) {
    std::printf("[client] reply %llu received at real %.3f ms\n",
                static_cast<unsigned long long>(pkt.seq),
                cloud.simulator().now().to_millis());
  });

  cloud.start();
  for (int i = 0; i < 3; ++i) {
    cloud.simulator().schedule_at(RealTime::millis(10 + 30 * i), [&, i] {
      net::Packet req;
      req.dst = cloud.vm_addr(vm);
      req.kind = net::PacketKind::kRequest;
      req.seq = static_cast<std::uint64_t>(i);
      req.size_bytes = 80;
      std::printf("[client] sending request %d\n", i);
      cloud.send_external(client, req);
    });
  }
  cloud.run_for(Duration::seconds(1));

  std::printf("\nreplicas deterministic: %s, divergences: %llu\n",
              cloud.replicas_deterministic(vm) ? "yes" : "NO",
              static_cast<unsigned long long>(cloud.total_divergences()));
  std::printf("egress released %llu packets (each on its 2nd replica copy)\n",
              static_cast<unsigned long long>(
                  cloud.egress_stats(vm).packets_released));
  return 0;
}
