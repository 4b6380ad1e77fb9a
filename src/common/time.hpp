// Time types used throughout StopWatch.
//
// Two distinct clock domains exist in the system (paper Sec. IV):
//  - *real* (simulated wall-clock) time: what the physical hosts, links, and
//    external observers experience;
//  - *virtual* time: what a guest VM observes, a deterministic function of
//    its own progress, virt(instr) = slope * instr + start (Eqn. 1).
//
// Mixing the two domains is the classic source of timing-channel bugs, so
// they are distinct strong types (Core Guidelines I.4): RealTime and
// VirtTime cannot be compared or subtracted across domains.
#pragma once

#include <compare>
#include <concepts>
#include <cstdint>
#include <ostream>

namespace stopwatch {

/// A span of time in nanoseconds. Durations are domain-agnostic: a delta
/// such as the paper's Δn is specified in virtual time but derived from
/// real-time bounds, so conversions are explicit at the point of use.
struct Duration {
  std::int64_t ns{0};

  [[nodiscard]] static constexpr Duration nanos(std::int64_t v) { return {v}; }
  [[nodiscard]] static constexpr Duration micros(std::int64_t v) { return {v * 1'000}; }
  [[nodiscard]] static constexpr Duration millis(std::int64_t v) { return {v * 1'000'000}; }
  [[nodiscard]] static constexpr Duration seconds(std::int64_t v) { return {v * 1'000'000'000}; }
  // A floating-point argument would truncate silently to the integer
  // factories above; it is a compile error instead (use from_seconds_f).
  template <std::floating_point T> static Duration nanos(T) = delete;
  template <std::floating_point T> static Duration micros(T) = delete;
  template <std::floating_point T> static Duration millis(T) = delete;
  template <std::floating_point T> static Duration seconds(T) = delete;
  [[nodiscard]] static constexpr Duration from_seconds_f(double s) {
    return {static_cast<std::int64_t>(s * 1e9)};
  }

  [[nodiscard]] constexpr double to_seconds() const { return static_cast<double>(ns) / 1e9; }
  [[nodiscard]] constexpr double to_millis() const { return static_cast<double>(ns) / 1e6; }

  constexpr auto operator<=>(const Duration&) const = default;
  constexpr Duration operator+(Duration o) const { return {ns + o.ns}; }
  constexpr Duration operator-(Duration o) const { return {ns - o.ns}; }
  constexpr Duration operator*(std::int64_t k) const { return {ns * k}; }
  constexpr Duration operator/(std::int64_t k) const { return {ns / k}; }
  constexpr Duration& operator+=(Duration o) { ns += o.ns; return *this; }
  constexpr Duration& operator-=(Duration o) { ns -= o.ns; return *this; }
};

namespace detail {

/// CRTP time-point over a tag type; points in different domains do not
/// interoperate.
template <typename Derived>
struct TimePointBase {
  std::int64_t ns{0};

  [[nodiscard]] static constexpr Derived nanos(std::int64_t v) { return Derived{v}; }
  [[nodiscard]] static constexpr Derived millis(std::int64_t v) { return Derived{v * 1'000'000}; }
  [[nodiscard]] static constexpr Derived seconds(std::int64_t v) { return Derived{v * 1'000'000'000}; }
  // Floating-point arguments are a compile error, as for Duration.
  template <std::floating_point T> static Derived nanos(T) = delete;
  template <std::floating_point T> static Derived millis(T) = delete;
  template <std::floating_point T> static Derived seconds(T) = delete;

  [[nodiscard]] constexpr double to_seconds() const { return static_cast<double>(ns) / 1e9; }
  [[nodiscard]] constexpr double to_millis() const { return static_cast<double>(ns) / 1e6; }

  constexpr auto operator<=>(const TimePointBase&) const = default;

  constexpr Derived operator+(Duration d) const { return Derived{ns + d.ns}; }
  constexpr Derived operator-(Duration d) const { return Derived{ns - d.ns}; }
  constexpr Duration operator-(const TimePointBase& o) const { return Duration{ns - o.ns}; }
  constexpr Derived& operator+=(Duration d) {
    ns += d.ns;
    return static_cast<Derived&>(*this);
  }
};

}  // namespace detail

/// Simulated wall-clock time as experienced by hosts and external observers.
struct RealTime : detail::TimePointBase<RealTime> {};

/// Guest-visible virtual time (paper Eqn. 1).
struct VirtTime : detail::TimePointBase<VirtTime> {};

inline std::ostream& operator<<(std::ostream& os, Duration d) {
  return os << d.ns << "ns";
}
inline std::ostream& operator<<(std::ostream& os, RealTime t) {
  return os << "R+" << t.ns << "ns";
}
inline std::ostream& operator<<(std::ostream& os, VirtTime t) {
  return os << "V+" << t.ns << "ns";
}

}  // namespace stopwatch
