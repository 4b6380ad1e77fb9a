// A physical machine of the cloud: CPU with contention and jitter, a
// machine-local real clock (with offset), the Dom0/VMM processing-delay
// model, a FIFO rotating disk, and the plan of its guests' vCPU exits
// (machine.cpp).
//
// The machine is where cross-VM interference lives — the *source* of the
// timing side channel. A coresident victim's CPU activity slows other
// guests' instruction rates, loads the VMM's packet-processing path, and
// queues the shared disk; the baseline policy leaks all of this to the
// attacker through interrupt timing, while StopWatch's median masks it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/contracts.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/simulator.hpp"

namespace stopwatch::hypervisor {

class GuestContext;

/// A source of host load. The machine plans its GuestContexts' exits
/// ahead, because it knows how their activity evolves between exits. It
/// cannot know that of any other source, so beside one every plan ends at
/// its first exit: one event per exit. Only tests define such a source,
/// as that one-event-per-exit reference.
class LoadSource {
 public:
  virtual ~LoadSource() = default;
  /// Current activity in [0, 1] (fraction of recent time spent non-idle).
  [[nodiscard]] virtual double activity() const = 0;
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
};

/// Statistics for experiment harnesses.
struct MachineStats {
  std::uint64_t disk_ops{0};
  std::uint64_t disk_bytes{0};
};

class Machine {
 public:
  /// `clock_offset` is the machine-local clock's offset from simulated
  /// global time.
  Machine(MachineId id, sim::Simulator& sim, MachineConfig cfg,
          Duration clock_offset, Rng rng)
      : id_(id),
        sim_(&sim),
        cfg_(cfg),
        clock_offset_(clock_offset),
        rng_(std::move(rng)) {
    SW_EXPECTS(cfg.base_ips > 0.0);
    SW_EXPECTS(cfg.disk_bytes_per_second > 0.0);
    SW_EXPECTS(cfg.disk_seek_min.ns >= 0 &&
               cfg.disk_seek_min.ns <= cfg.disk_seek_max.ns);
  }

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] MachineId id() const { return id_; }
  [[nodiscard]] const MachineConfig& config() const { return cfg_; }
  [[nodiscard]] Duration clock_offset() const { return clock_offset_; }
  [[nodiscard]] const MachineStats& stats() const { return stats_; }

  /// Machine-local real clock (global simulated time + offset).
  [[nodiscard]] RealTime local_clock() const {
    return sim_->now() + clock_offset_;
  }

  /// Registers a source the machine cannot plan (see LoadSource).
  void register_load_source(LoadSource* src) {
    SW_EXPECTS(src != nullptr);
    add_source(src, nullptr);
  }
  /// Registers a guest whose exits the machine plans (its constructor
  /// calls this).
  void register_guest(GuestContext* guest);

  /// Extra host load injected by experiments (e.g., the collaborating
  /// attacker VM of Sec. IX).
  void set_extra_load(double load) {
    SW_EXPECTS(load >= 0.0);
    extra_load_ = load;
    on_load_changed();
  }

  /// Sum of coresident activity excluding `self` (pass nullptr for "all").
  [[nodiscard]] double load_excluding(const LoadSource* self) const {
    double load = extra_load_;
    for (const Source& s : sources_) {
      if (s.source != self) load += s.source->activity();
    }
    return load;
  }

  /// Draws `n` slices' host IPS jitter from `rng`, a guest's own stream,
  /// into `out` (1.0 without jitter). Each is rng.lognormal(0, sigma), in
  /// stream order; the normals are drawn first and exponentiated after, so
  /// that the exp calls run back to back.
  void ips_jitter(Rng& rng, double* out, std::size_t n) const {
    const double sigma = cfg_.ips_jitter_sigma;
    if (sigma > 0.0) {
      for (std::size_t k = 0; k < n; ++k) out[k] = rng.normal(0.0, sigma);
      for (std::size_t k = 0; k < n; ++k) out[k] = std::exp(out[k]);
    } else {
      std::fill_n(out, n, 1.0);
    }
  }

  /// What a vCPU slice's duration depends on: the machine's rate,
  /// overheads and clock offset, which a plan reads once, and the
  /// contention of the coresident load the slice runs under, which it sets
  /// once per run of slices under one load (set_load()).
  struct SliceModel {
    double base_ips;
    double contention_alpha;
    Duration exit_overhead;
    std::uint64_t preempt_interval_instr;
    double preempt_wait_ns;
    Duration clock_offset;
    /// 1 + contention_alpha * other_load: contention divides the rate.
    double contention{1.0};
    /// Whether a vCPU that loses the core waits at all (0 load -> no
    /// wait, and no draw).
    bool preempts{false};
    /// The mean of that wait: preempt_wait * other_load, in ns.
    double preempt_mean_ns{0.0};

    /// Sets the coresident load of the slices to come.
    void set_load(double other_load) {
      contention = 1.0 + contention_alpha * other_load;
      preempts = other_load > 0.0 && preempt_wait_ns > 0.0;
      preempt_mean_ns = preempt_wait_ns * other_load;
    }
    /// The effective instruction rate of a slice with IPS jitter `jitter`.
    [[nodiscard]] double ips(double jitter) const {
      return base_ips * jitter / contention;
    }
    /// The runqueue wait a vCPU suffers when it loses the core:
    /// ~Exp(preempt_mean_ns), scaled from `unit_exp`, a unit-mean
    /// exponential draw from the guest's own stream. Precondition:
    /// preempts.
    [[nodiscard]] Duration preemption_wait(double unit_exp) const {
      return Duration{static_cast<std::int64_t>(preempt_mean_ns * unit_exp)};
    }
  };

  /// This machine's slice model, with no coresident load set.
  [[nodiscard]] SliceModel slice_model() const {
    return {cfg_.base_ips,
            cfg_.contention_alpha,
            cfg_.exit_overhead,
            cfg_.preempt_interval_instr,
            static_cast<double>(cfg_.preempt_wait.ns),
            clock_offset_};
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
  // Exit planning (machine.cpp; see "Spans" in guest_context.hpp). The
  // guests call these.
  friend class GuestContext;

  struct Source {
    LoadSource* source;
    GuestContext* guest;  // null for a source the machine cannot plan
  };
  /// Runs every guest's planned exits that lie in the past.
  void settle();
  /// Plans the guests' exits from the exits in flight, up to the first
  /// one where something may become due, and arms the exit event there.
  void plan();
  /// An input reached `guest`: the plan ends at its first planned exit
  /// where something is now due, or at its exit in flight if `in_flight`
  /// (outside access to its program may have changed anything).
  void cut(GuestContext& guest, bool in_flight = false);
  /// The extra load or the set of sources changed: the plan ends at the
  /// first exit in flight.
  void on_load_changed();
  void add_source(LoadSource* src, GuestContext* guest);
  /// The planned guest, other than `other_than`, whose last planned exit
  /// runs first (null: none).
  [[nodiscard]] GuestContext* earliest(const GuestContext* other_than) const;
  /// The coresident load `guest` reads while the plan is made, from the
  /// activities the guests will have at that point of the plan.
  [[nodiscard]] double planned_load(const GuestContext* guest) const;
  /// Truncates every guest's plan after `guest`'s planned exit `exit`,
  /// which then ends the plan.
  void end_plan_at(GuestContext& guest, std::size_t exit);
  void arm(std::int64_t at_ns);
  void on_exit_event();

  MachineId id_;
  sim::Simulator* sim_;
  MachineConfig cfg_;
  Duration clock_offset_;
  Rng rng_;
  std::vector<Source> sources_;
  /// The planned guests, in registration order.
  std::vector<GuestContext*> guests_;
  /// Whether a source the machine cannot plan is registered.
  bool foreign_source_{false};
  double extra_load_{0.0};
  /// The guest whose exit ends the plan (null: no plan in flight), the
  /// event at that exit, and the start order of the next planned slice.
  GuestContext* last_{nullptr};
  std::optional<sim::EventId> exit_event_;
  std::uint32_t next_slice_seq_{0};
  RealTime disk_free_{};
  MachineStats stats_;
};

}  // namespace stopwatch::hypervisor
