// revft/support/rng.h
//
// Deterministic pseudo-random number generation for Monte-Carlo
// simulation. Two generators:
//
//  * SplitMix64 — used for seeding and cheap one-shot streams;
//  * Xoshiro256** — the workhorse generator for simulation (fast,
//    well-tested statistical quality, 2^256-1 period).
//
// Every stochastic component in revft takes an explicit seed so that
// all experiments are reproducible bit-for-bit (DESIGN.md §6).
#pragma once

#include <array>
#include <cstdint>

namespace revft {

/// SplitMix64: tiny generator used to expand a 64-bit seed into the
/// larger state of Xoshiro256**, and for cheap derived seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64 uniformly distributed bits.
  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256**: primary generator. Satisfies (a useful subset of) the
/// C++ UniformRandomBitGenerator concept so it can drive <random> if
/// ever needed, though revft uses its own distribution helpers.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a 64-bit seed via SplitMix64,
  /// as recommended by the generator's authors.
  explicit Xoshiro256(std::uint64_t seed = 0x1dea5ea5edc0ffeeULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  /// Next 64 uniformly distributed bits.
  result_type operator()() noexcept { return next(); }
  result_type next() noexcept;

  /// Uniform double in [0, 1) with 53 bits of precision.
  double next_double() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound). bound must be > 0. Uses Lemire's
  /// nearly-divisionless method (the modulo bias is negligible for the
  /// bound sizes used here, but we reject anyway for exactness).
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// 64 independent Bernoulli(p) draws packed into one word: bit t is 1
  /// with probability p. This is the per-lane gate-failure mask used by
  /// the bit-parallel Monte-Carlo engine (noise/packed_sim.h). Lane t's
  /// verdict is exactly u_t < p * 2^64 for a uniform 64-bit u_t, but
  /// the u_t are drawn as bit-planes, most significant first, one
  /// next() per plane for all 64 lanes, stopping once every lane
  /// differs from the threshold: about 7.34 draws per mask for any p.
  std::uint64_t next_bernoulli_mask(double p) noexcept;

  /// Derive an independent child seed (for spawning per-thread or
  /// per-experiment generators from one master seed).
  std::uint64_t derive_seed() noexcept { return next() ^ 0x5851f42d4c957f2dULL; }

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace revft
