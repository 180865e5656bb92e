// Deterministic, seedable random number generation.
//
// All dataset generators and property tests use this generator so that every
// benchmark in docs/BENCHMARKS.md is exactly reproducible from its seed.  We use
// xoshiro256++ (public-domain, Blackman & Vigna) seeded through splitmix64,
// which is both faster and statistically stronger than std::mt19937 and has a
// trivially copyable state that is cheap to fork per OpenMP thread.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>

namespace rtd {

namespace detail {
inline constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace detail

/// splitmix64: used only to expand a user seed into xoshiro state.
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

/// xoshiro256++ generator with convenience distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eedULL) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = detail::rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = detail::rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform float in [lo, hi).
  float uniformf(float lo, float hi) {
    return static_cast<float>(uniform(lo, hi));
  }

  /// Uniform integer in [0, n).  n must be > 0.
  std::uint64_t below(std::uint64_t n) {
    // Lemire's nearly-divisionless bounded generation.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t between(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Standard normal via Box-Muller (no cached second value: keeps the
  /// generator state a pure function of the draw count).
  double normal() {
    const double u1 = 1.0 - uniform();  // avoid log(0)
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
  }

  double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  bool coin(double p_true = 0.5) { return uniform() < p_true; }

  /// Fork a statistically independent child stream (for per-thread use).
  Rng fork() { return Rng(next_u64() ^ 0x9e3779b97f4a7c15ULL); }

 private:
  std::uint64_t s_[4];
};

}  // namespace rtd
