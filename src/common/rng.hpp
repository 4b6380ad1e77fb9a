// Deterministic random number generation.
//
// Every stochastic element of the simulation (link jitter, host load noise,
// packet inter-arrival times) draws from an Rng seeded from the experiment
// configuration, so simulation runs are bit-reproducible — a requirement for
// both the replica-determinism property the paper relies on (Sec. VI) and
// for regression testing.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/contracts.hpp"

namespace stopwatch {

/// splitmix64: used to expand a single user seed into stream seeds.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// The 128-layer ziggurat behind Rng::normal: Doornik's ZIGNOR (2005), a
/// variant of Marsaglia and Tsang's. Layer i spans heights f(x[i])..f(x[i+1])
/// of f(x) = exp(-x^2 / 2); every layer, the base strip with its tail
/// included, has area v. The tables are checked-in constants, not computed
/// at start-up, so every compiler and libm samples the same variates;
/// exposed here so a test can recompute them from the recurrence.
namespace ziggurat {
inline constexpr int kLayers = 128;
/// r: where the base strip's tail begins.
inline constexpr double kTailStart = 3.442619855899;
/// v: the area of each layer.
inline constexpr double kLayerArea = 9.91256303526217e-3;
/// x[0] = v / f(r), x[1] = r, decreasing to x[128] = 0.
extern const double kX[kLayers + 1];
/// x[i + 1] / x[i]: the share of layer i that lies under the curve
/// whatever the height.
extern const double kRatio[kLayers];
}  // namespace ziggurat

/// xoshiro256** — fast, high-quality, reproducible PRNG with convenience
/// samplers for the distributions the simulator needs. An Rng is its 32
/// bytes of stream state and nothing else: a draw depends only on the
/// stream position.
///
/// `normal` is the ziggurat above. One 64-bit draw gives the layer (low 7
/// bits) and a 53-bit uniform u in [-1, 1) (high bits); |u| < kRatio[i]
/// returns u * x[i] at once, which happens on 97.2% of draws. Otherwise the
/// draw is in a wedge, accepted by comparing a second uniform against the
/// curve, or, in the base strip, beyond r, where Marsaglia's exponential
/// rejection samples the tail exactly. A rejected draw starts over.
///
/// The stream step and that fast path are inline, so a caller drawing one
/// jitter per vCPU slice pays a few instructions and no call; the wedge
/// and tail paths stay out of line (rng.cpp) and continue from the 64-bit
/// draw the fast path rejected, so every variate is the same either way.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Derive an independent child stream (e.g., one per machine) so that
  /// adding noise consumers does not perturb unrelated streams.
  [[nodiscard]] Rng fork(std::uint64_t stream_tag) const;

  std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }
  /// Uniform in [0, 1).
  double uniform01();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Exponential with rate lambda (mean 1/lambda).
  double exponential(double lambda);
  /// Normal with the given mean and standard deviation (ziggurat).
  double normal(double mean = 0.0, double stddev = 1.0);
  /// Lognormal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma) {
    return std::exp(normal(mu, sigma));
  }
  /// Bernoulli trial.
  bool chance(double p);

 private:
  /// normal() past its fast path: the wedge or tail of the draw `bits`.
  double normal_slow(double mean, double stddev, std::uint64_t bits);

  std::uint64_t s_[4];
};

inline double Rng::normal(double mean, double stddev) {
  SW_EXPECTS(stddev >= 0.0);
  const std::uint64_t bits = next_u64();
  const auto i = static_cast<std::size_t>(bits & 0x7f);
  // 2 * (53-bit uniform) - 1 is exact: u is a multiple of 2^-52.
  const double u = static_cast<double>(bits >> 11) * 0x1.0p-52 - 1.0;
  if (std::fabs(u) < ziggurat::kRatio[i]) [[likely]] {
    return mean + stddev * (u * ziggurat::kX[i]);
  }
  return normal_slow(mean, stddev, bits);
}

}  // namespace stopwatch
