// The guest's virtual clock (paper Sec. IV, Eqn. 1):
//
//   virt(instr) = slope × instr + start
//
// All guest-visible time sources (PIT timer interrupts, rdtsc, CMOS RTC,
// PIT counter readback) are derived from this function of the guest's
// retired-instruction count (branch count in the prototype). Epoch-based
// resynchronization (Sec. IV-A) rebases the line with a clamped slope while
// keeping it continuous.
//
// Under the unmodified-Xen baseline policy the clock passes through the
// machine-local real clock instead — that is precisely the timing channel
// StopWatch closes.
#pragma once

#include <cstdint>
#include <functional>

#include "common/contracts.hpp"
#include "common/time.hpp"

namespace stopwatch::hypervisor {

class VirtualClock {
 public:
  enum class Mode {
    kVirtualized,      ///< Eqn. 1 over guest instructions (StopWatch)
    kRealPassthrough,  ///< machine-local real time (unmodified Xen)
  };

  /// `local_real_now` returns the machine-local real clock (simulated global
  /// time plus the machine's clock offset); used only in passthrough mode.
  VirtualClock(Mode mode, std::function<RealTime()> local_real_now)
      : mode_(mode), local_real_now_(std::move(local_real_now)) {
    SW_EXPECTS(local_real_now_ != nullptr);
  }

  /// Sets the line's origin: virt(anchor 0) = start, with `slope` in
  /// nanoseconds of virtual time per instruction.
  void initialize(VirtTime start, double slope) {
    SW_EXPECTS(slope > 0.0);
    anchor_instr_ = 0;
    anchor_virt_ = start;
    slope_ = slope;
    initialized_ = true;
  }

  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] double slope() const { return slope_; }
  [[nodiscard]] bool initialized() const { return initialized_; }

  /// Virtual time after `instr` retired instructions (virtualized mode).
  [[nodiscard]] VirtTime at_instr(std::uint64_t instr) const {
    SW_EXPECTS(initialized_);
    SW_EXPECTS(instr >= anchor_instr_);
    const double delta = static_cast<double>(instr - anchor_instr_) * slope_;
    return anchor_virt_ + Duration{static_cast<std::int64_t>(delta)};
  }

  /// The guest-visible clock right now, given the current instruction count.
  [[nodiscard]] VirtTime now(std::uint64_t current_instr) const {
    if (mode_ == Mode::kRealPassthrough) {
      return VirtTime{local_real_now_().ns};
    }
    return at_instr(current_instr);
  }

  /// The guest-visible clock at the moment the guest had retired `instr`
  /// instructions while the machine-local real clock read `local_real`
  /// (a planned exit, not necessarily now).
  [[nodiscard]] VirtTime at(std::uint64_t instr, RealTime local_real) const {
    if (mode_ == Mode::kRealPassthrough) return VirtTime{local_real.ns};
    return at_instr(instr);
  }

  /// Rebase at `anchor_instr` with a new slope, keeping the clock continuous
  /// (start_{k+1} = virt_k at the anchor). Used by epoch resync.
  void rebase(std::uint64_t anchor_instr, double new_slope) {
    SW_EXPECTS(initialized_);
    SW_EXPECTS(new_slope > 0.0);
    const VirtTime v = at_instr(anchor_instr);
    anchor_instr_ = anchor_instr;
    anchor_virt_ = v;
    slope_ = new_slope;
  }

 private:
  Mode mode_;
  std::function<RealTime()> local_real_now_;
  std::uint64_t anchor_instr_{0};
  VirtTime anchor_virt_{};
  double slope_{1.0};
  bool initialized_{false};
};

/// Clamp a candidate slope into [lo, hi] — the paper's argmin over [ℓ, u]
/// (Sec. IV-A): the closest admissible value to the candidate.
[[nodiscard]] inline double clamp_slope(double candidate, double lo, double hi) {
  SW_EXPECTS(lo > 0.0 && lo <= hi);
  if (candidate < lo) return lo;
  if (candidate > hi) return hi;
  return candidate;
}

}  // namespace stopwatch::hypervisor
