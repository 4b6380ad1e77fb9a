// A physical machine of the cloud: CPU with contention and jitter, a
// machine-local real clock (with offset), the Dom0/VMM processing-delay
// model, and a FIFO rotating disk.
//
// The machine is where cross-VM interference lives — the *source* of the
// timing side channel. A coresident victim's CPU activity slows other
// guests' instruction rates, loads the VMM's packet-processing path, and
// queues the shared disk; the baseline policy leaks all of this to the
// attacker through interrupt timing, while StopWatch's median masks it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/simulator.hpp"

namespace stopwatch::hypervisor {

/// A source of host load (implemented by GuestContext).
class LoadSource {
 public:
  virtual ~LoadSource() = default;
  /// Current activity in [0, 1] (fraction of recent time spent non-idle).
  [[nodiscard]] virtual double activity() const = 0;
  /// The machine's load inputs changed: its extra load was set, or
  /// another source registered.
  virtual void on_host_load_changed() {}
};

struct MachineConfig {
  /// Nominal instructions per second of one vCPU.
  double base_ips{1e9};
  /// Lognormal sigma of per-slice instruction-rate jitter.
  double ips_jitter_sigma{0.04};
  /// Effective rate = base / (1 + alpha * other_load).
  double contention_alpha{0.7};
  /// Cost of one VM exit + entry (added per execution slice).
  Duration exit_overhead{Duration::micros(2)};

  /// Dom0 device-model processing latency for an inbound packet:
  /// base + load_coefficient * load, jittered lognormally.
  Duration vmm_base_delay{Duration::micros(50)};
  Duration vmm_load_delay{Duration::micros(600)};
  double vmm_delay_jitter_sigma{0.35};

  /// vCPU scheduling: roughly once per `preempt_interval_instr` of guest
  /// execution on a contended host, the vCPU loses the physical core and
  /// waits ~Exp(preempt_wait * other_load) before resuming. This is the
  /// credit-scheduler contention a coresident victim inflicts — and the
  /// dominant leak through interrupt-delivery timing on unmodified Xen.
  Duration preempt_wait{Duration::millis(4)};
  std::uint64_t preempt_interval_instr{10'000'000};

  /// Rotating-disk model: per-op positioning time uniform in
  /// [seek_min, seek_max] plus transfer at `disk_bytes_per_second`.
  Duration disk_seek_min{Duration::millis(2)};
  Duration disk_seek_max{Duration::millis(8)};
  double disk_bytes_per_second{80e6};

  /// Machine-local clock offset from simulated global time.
  Duration clock_offset{};
};

/// Statistics for experiment harnesses.
struct MachineStats {
  std::uint64_t disk_ops{0};
  std::uint64_t disk_bytes{0};
};

class Machine {
 public:
  Machine(MachineId id, sim::Simulator& sim, MachineConfig cfg, Rng rng)
      : id_(id), sim_(&sim), cfg_(cfg), rng_(std::move(rng)) {
    SW_EXPECTS(cfg.base_ips > 0.0);
    SW_EXPECTS(cfg.disk_bytes_per_second > 0.0);
    SW_EXPECTS(cfg.disk_seek_min.ns >= 0 &&
               cfg.disk_seek_min.ns <= cfg.disk_seek_max.ns);
  }

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] MachineId id() const { return id_; }
  [[nodiscard]] const MachineConfig& config() const { return cfg_; }
  [[nodiscard]] const MachineStats& stats() const { return stats_; }

  /// Machine-local real clock (global simulated time + offset).
  [[nodiscard]] RealTime local_clock() const {
    return sim_->now() + cfg_.clock_offset;
  }

  void register_load_source(LoadSource* src) {
    SW_EXPECTS(src != nullptr);
    for (LoadSource* s : sources_) s->on_host_load_changed();
    sources_.push_back(src);
  }

  /// True if `src` is the only load source on this machine.
  [[nodiscard]] bool sole_source(const LoadSource* src) const {
    return sources_.size() == 1 && sources_.front() == src;
  }

  /// Extra host load injected by experiments (e.g., the collaborating
  /// attacker VM of Sec. IX).
  void set_extra_load(double load) {
    SW_EXPECTS(load >= 0.0);
    extra_load_ = load;
    for (LoadSource* s : sources_) s->on_host_load_changed();
  }

  /// Sum of coresident activity excluding `self` (pass nullptr for "all").
  [[nodiscard]] double load_excluding(const LoadSource* self) const {
    double load = extra_load_;
    for (const auto* s : sources_) {
      if (s != self) load += s->activity();
    }
    return load;
  }

  /// Draws one slice's host IPS jitter from `rng`, a guest's own stream
  /// (1.0 without jitter).
  [[nodiscard]] double ips_jitter(Rng& rng) const {
    return cfg_.ips_jitter_sigma > 0.0
               ? rng.lognormal(0.0, cfg_.ips_jitter_sigma)
               : 1.0;
  }

  /// The effective instruction rate of a slice with IPS jitter `jitter`,
  /// for a guest whose coresident load is `other_load`.
  [[nodiscard]] double effective_ips(double other_load, double jitter) const {
    return cfg_.base_ips * jitter / (1.0 + cfg_.contention_alpha * other_load);
  }

  /// Whether a vCPU that loses the core waits at all under coresident
  /// load `other_load` (0 load -> no wait, and no draw).
  [[nodiscard]] bool preempts(double other_load) const {
    return other_load > 0.0 && cfg_.preempt_wait.ns > 0;
  }

  /// The runqueue wait a vCPU suffers when it loses the core on a host
  /// with coresident load `other_load`: ~Exp(preempt_wait * other_load),
  /// scaled from `unit_exp`, a unit-mean exponential draw from the
  /// guest's own stream. Precondition: preempts(other_load).
  [[nodiscard]] Duration preemption_wait(double other_load,
                                         double unit_exp) const {
    const double mean_ns =
        static_cast<double>(cfg_.preempt_wait.ns) * other_load;
    return Duration{static_cast<std::int64_t>(mean_ns * unit_exp)};
  }

  /// Samples the Dom0 device-model processing delay under `load`.
  [[nodiscard]] Duration vmm_processing_delay(double load) {
    const double jitter = cfg_.vmm_delay_jitter_sigma > 0.0
                              ? rng_.lognormal(0.0, cfg_.vmm_delay_jitter_sigma)
                              : 1.0;
    const double ns = (static_cast<double>(cfg_.vmm_base_delay.ns) +
                       static_cast<double>(cfg_.vmm_load_delay.ns) * load) *
                      jitter;
    return Duration{static_cast<std::int64_t>(ns)};
  }

  /// Enqueue a disk operation; returns its (real-time) completion. The disk
  /// is a per-machine FIFO shared by all hosted guests.
  RealTime schedule_disk_op(std::uint64_t bytes) {
    const auto seek_ns = rng_.uniform_int(cfg_.disk_seek_min.ns, cfg_.disk_seek_max.ns);
    const auto transfer = Duration::from_seconds_f(
        static_cast<double>(bytes) / cfg_.disk_bytes_per_second);
    const RealTime start =
        disk_free_.ns > sim_->now().ns ? disk_free_ : sim_->now();
    const RealTime done = start + Duration{seek_ns} + transfer;
    disk_free_ = done;
    ++stats_.disk_ops;
    stats_.disk_bytes += bytes;
    return done;
  }

 private:
  MachineId id_;
  sim::Simulator* sim_;
  MachineConfig cfg_;
  Rng rng_;
  std::vector<LoadSource*> sources_;
  double extra_load_{0.0};
  RealTime disk_free_{};
  MachineStats stats_;
};

}  // namespace stopwatch::hypervisor
