// Attacker-visible observation capture for leakage analysis.
//
// An ObservationLog records timing observations labeled with the victim's
// secret input class — the raw material every leakage estimator in this
// subsystem consumes. StopWatch's claim is information-theoretic (the
// replicated median bounds the channel to a handful of bits), so the log is
// the bridge between a simulated experiment and that verdict: a scenario
// taps egress timings (see timing_tap.hpp), labels them with the secret the
// victim was acting on, and hands the log to the mutual-information and
// channel-capacity estimators (estimators.hpp, capacity.hpp).
//
// Memory is bounded: each secret class keeps its exact record count plus a
// reservoir sample (Vitter's Algorithm R) of at most `reservoir_capacity`
// values — the samples the estimators consume. Reservoir replacement draws
// from a dedicated Rng seeded from the config, so the retained sample — and
// therefore `serialize()` — is a pure function of (seed, record sequence):
// the determinism property the tap tests assert.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace stopwatch::leakage {

struct ObservationLogConfig {
  std::uint64_t seed{1};
  /// Maximum retained samples per secret class (at least 1).
  std::size_t reservoir_capacity{8192};
};

class ObservationLog {
 public:
  ObservationLog() : ObservationLog(ObservationLogConfig{}) {}
  explicit ObservationLog(ObservationLogConfig cfg);

  /// Records one observation of `value` made while the victim's secret
  /// input belonged to `secret_class` (a small non-negative label).
  void record(int secret_class, double value);

  /// Distinct secret classes seen so far, ascending.
  [[nodiscard]] std::vector<int> classes() const;

  /// Observations recorded over every class (exact, even when the
  /// reservoirs retain fewer).
  [[nodiscard]] std::uint64_t total_count() const { return total_; }

  /// The retained sample for `cls` (all observations while under capacity;
  /// a uniform random subset once the reservoir saturates).
  [[nodiscard]] const std::vector<double>& samples(int cls) const;

  /// Retained samples of every class pooled together (class-ascending,
  /// insertion order within a class) — the input to bin-edge selection.
  [[nodiscard]] std::vector<double> pooled_samples() const;

  /// Deterministic byte-exact text serialization (doubles as IEEE-754 bit
  /// patterns): two logs fed the same records under the same seed
  /// serialize identically.
  [[nodiscard]] std::string serialize() const;

  [[nodiscard]] const ObservationLogConfig& config() const { return cfg_; }

  /// Bytes held by the per-class reservoirs (capacity, not size: the
  /// memory actually reserved). The accounting gauge behind
  /// `mem.reservoir_bytes` — bounded by classes * reservoir_capacity.
  [[nodiscard]] std::size_t reservoir_bytes() const {
    std::size_t bytes = 0;
    for (const auto& [cls, slot] : classes_) {
      bytes += slot.reservoir.capacity() * sizeof(double);
    }
    return bytes;
  }

 private:
  struct ClassSlot {
    std::uint64_t seen{0};
    std::vector<double> reservoir;
  };

  ObservationLogConfig cfg_;
  Rng rng_;
  std::map<int, ClassSlot> classes_;
  std::uint64_t total_{0};
};

}  // namespace stopwatch::leakage
