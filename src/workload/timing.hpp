// Timing side-channel workloads (paper Secs. III, V-B; Figs. 1 and 4).
//
//  * AttackerProbeProgram — the attacker VM: timestamps every packet
//    delivery with its guest-visible clock (virtual under StopWatch, real
//    under baseline Xen) and exposes the observation series.
//  * VictimServerProgram — the victim VM: a duty-cycled file server whose
//    bursts of CPU, disk, and network output load the host it shares with
//    one attacker replica.
//  * BackgroundBroadcaster — the campus-subnet broadcast traffic (ARP etc.,
//    50-100 packets/s in the paper's testbed) that gives the attacker a
//    steady stream of deliveries to time.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "core/cloud.hpp"
#include "vm/guest.hpp"

namespace stopwatch::workload {

/// Attacker guest: records the guest-clock time of every packet delivery.
class AttackerProbeProgram final : public vm::GuestProgram {
 public:
  void on_boot(vm::GuestApi&) override {}
  void on_timer_tick(vm::GuestApi&, std::uint64_t) override {}
  void on_packet(vm::GuestApi& api, const net::Packet&) override {
    observations_ns_.push_back(api.now().ns);
  }

  [[nodiscard]] const std::vector<std::int64_t>& observations_ns() const {
    return observations_ns_;
  }

  /// Inter-observation deltas in milliseconds (the attacker's measurement
  /// series for the chi-squared test).
  [[nodiscard]] std::vector<double> inter_arrival_ms() const {
    std::vector<double> out;
    for (std::size_t i = 1; i < observations_ns_.size(); ++i) {
      out.push_back(static_cast<double>(observations_ns_[i] -
                                        observations_ns_[i - 1]) /
                    1e6);
    }
    return out;
  }

 private:
  std::vector<std::int64_t> observations_ns_;
};

/// Victim guest: duty-cycled file serving (compute + disk + output bursts).
class VictimServerProgram final : public vm::GuestProgram {
 public:
  /// The duty cycle itself (virtual-time burst and idle gap, the work unit
  /// within a burst, the response packet size) is fixed in timing.cpp.
  struct Config {
    std::uint32_t disk_bytes{64 * 1024};
    /// Chance that a work unit also reads `disk_bytes` from disk.
    double disk_probability{0.30};
    /// Response packets emitted per work unit.
    int packets_per_unit{2};
    NodeId sink{};
  };

  explicit VictimServerProgram(Config cfg) : cfg_(cfg) {}

  void on_boot(vm::GuestApi& api) override;
  void on_timer_tick(vm::GuestApi&, std::uint64_t) override {}
  void on_packet(vm::GuestApi&, const net::Packet&) override {}

 private:
  void start_burst();
  void work_unit(std::int64_t burst_end_ns);

  Config cfg_;
  vm::GuestApi* api_{nullptr};
  std::uint32_t out_seq_{0};
};

/// External node emitting background traffic toward a VM address: Poisson
/// bursts (like subnet ARP/broadcast storms) of 1-5 packets spaced
/// sub-millisecond, at `rate_hz` packets/s on average.
class BackgroundBroadcaster {
 public:
  BackgroundBroadcaster(core::Cloud& cloud, NodeId target, double rate_hz,
                        std::uint64_t seed);

  void start();

  [[nodiscard]] std::uint64_t packets_sent() const { return sent_; }

 private:
  [[nodiscard]] Duration next_burst_wait();
  void on_burst();

  core::Cloud* cloud_;
  NodeId self_{};
  NodeId target_;
  double rate_hz_;
  Rng rng_;
  std::uint64_t sent_{0};
  std::uint32_t seq_{0};
  /// The burst timer: one simulator arena slot, re-armed per burst.
  std::optional<sim::EventId> burst_event_;
};

}  // namespace stopwatch::workload
