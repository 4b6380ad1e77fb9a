#include "workload/timing.hpp"

#include <utility>

#include "common/contracts.hpp"

namespace stopwatch::workload {

namespace {
/// Virtual-time burst and idle-gap durations of the victim's duty cycle.
constexpr Duration kVictimBurst = Duration::millis(60);
constexpr Duration kVictimGap = Duration::millis(25);
/// Instructions per work unit within a burst.
constexpr std::uint64_t kVictimUnitInstr = 2'000'000;
constexpr std::uint32_t kVictimPacketBytes = 1400;
}  // namespace

void VictimServerProgram::on_boot(vm::GuestApi& api) {
  api_ = &api;
  start_burst();
}

void VictimServerProgram::start_burst() {
  const std::int64_t end = api_->now().ns + kVictimBurst.ns;
  work_unit(end);
}

void VictimServerProgram::work_unit(std::int64_t burst_end_ns) {
  api_->compute(kVictimUnitInstr, [this, burst_end_ns] {
    // Emit response traffic.
    for (int i = 0; i < cfg_.packets_per_unit; ++i) {
      net::Packet pkt;
      pkt.dst = cfg_.sink;
      pkt.kind = net::PacketKind::kData;
      pkt.seq = ++out_seq_;
      pkt.size_bytes = kVictimPacketBytes;
      pkt.msg_len = kVictimPacketBytes;
      api_->send_packet(pkt);
    }
    // Disk reads proceed asynchronously (a real file server overlaps I/O
    // with serving other connections), so the burst keeps the vCPU busy.
    if (api_->det_rng().chance(cfg_.disk_probability)) {
      api_->disk_read(cfg_.disk_bytes, [] {});
    }
    if (api_->now().ns < burst_end_ns) {
      work_unit(burst_end_ns);
    } else {
      api_->set_timer(kVictimGap, [this] { start_burst(); });
    }
  });
}

BackgroundBroadcaster::BackgroundBroadcaster(core::Cloud& cloud,
                                             NodeId target, double rate_hz,
                                             std::uint64_t seed)
    : cloud_(&cloud), target_(target), rate_hz_(rate_hz), rng_(seed) {
  SW_EXPECTS(rate_hz > 0.0);
  self_ = cloud_->add_external_node([](const net::Packet&) {});
}

void BackgroundBroadcaster::start() {
  burst_event_ = cloud_->simulator().schedule_after(next_burst_wait(),
                                                    [this] { on_burst(); });
}

Duration BackgroundBroadcaster::next_burst_wait() {
  // Bursts of 1-5 packets; mean burst size 3 -> burst rate = rate / 3.
  const double burst_rate = rate_hz_ / 3.0;
  return Duration::from_seconds_f(rng_.exponential(burst_rate));
}

void BackgroundBroadcaster::on_burst() {
  const auto burst = rng_.uniform_int(1, 5);
  Duration offset{};
  for (std::int64_t i = 0; i < burst; ++i) {
    cloud_->simulator().schedule_after(offset, [this] {
      net::Packet pkt;
      pkt.dst = target_;
      pkt.kind = net::PacketKind::kRequest;
      pkt.seq = ++seq_;
      pkt.size_bytes = 80;
      cloud_->send_external(self_, pkt);
      ++sent_;
    });
    offset += Duration{rng_.uniform_int(100'000, 900'000)};  // 0.1-0.9ms
  }
  // The burst loop re-arms its own arena slot for the next burst.
  cloud_->simulator().reschedule_after(*burst_event_, next_burst_wait());
}

}  // namespace stopwatch::workload
