// Deterministic pseudo-random number generation.
//
// All stochastic components of the library (workload generation, the genetic
// baseline, the discrete-event simulator) draw from dbs::Rng so that every
// experiment is reproducible from a single 64-bit seed. The generator is
// xoshiro256++ (Blackman & Vigna), seeded through splitmix64 — the standard
// seeding recipe that tolerates low-entropy seeds such as 0 or small integers.
#pragma once

#include <array>
#include <cstdint>

namespace dbs {

/// splitmix64 step; used for seeding and as a cheap stateless mixer.
/// Advances `state` and returns the next 64-bit output.
std::uint64_t splitmix64_next(std::uint64_t& state);

/// xoshiro256++ pseudo-random generator with helpers for the distributions
/// the library needs. Satisfies std::uniform_random_bit_generator, so it can
/// also be plugged into <random> distributions when convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state via splitmix64(seed).
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~static_cast<result_type>(0); }

  /// Next raw 64-bit value.
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Uses Lemire's unbiased
  /// multiply-shift rejection method.
  std::uint64_t below(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t between(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p);

  /// Splits off an independent generator; the child is seeded from this
  /// generator's stream so sub-components do not share state.
  Rng split();

 private:
  std::array<std::uint64_t, 4> s_;
};

}  // namespace dbs
