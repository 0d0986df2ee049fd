#pragma once

#include <cstdint>
#include <limits>

// Deterministic pseudo-random number generation for the simulator.
//
// Every stochastic component (link loss, workload arrivals, frame sizes,
// ...) draws from an explicitly seeded Rng so that whole experiments are
// reproducible bit-for-bit. We implement xoshiro256** rather than using
// std::mt19937_64 because it is faster, has a tiny state, and its
// behaviour is fixed across standard library implementations.
namespace livenet {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference
/// implementation, re-expressed in C++).
class Rng {
 public:
  /// Seeds the generator. Two generators with the same seed produce the
  /// same sequence; distinct seeds produce decorrelated streams thanks to
  /// the splitmix64 seeding procedure.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // splitmix64 to fill the state: recommended seeding for xoshiro.
    auto next = [&seed]() {
      seed += 0x9E3779B97F4A7C15ull;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      return z ^ (z >> 31);
    };
    for (auto& word : state_) word = next();
  }

  /// Uniform 64-bit draw.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform real in [0, 1).
  double uniform() {
    // 53 bits of mantissa from the top of the draw.
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(bounded(span));
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) { return uniform() < p; }

  /// Exponentially distributed draw with the given mean (> 0).
  double exponential(double mean);

  /// Standard normal draw (Box-Muller; one value per call).
  double normal(double mu = 0.0, double sigma = 1.0);

  /// Log-normal draw parameterized by the mean/sigma of the underlying
  /// normal distribution.
  double lognormal(double mu, double sigma);

  /// Picks an index in [0, n) uniformly. Requires n > 0.
  std::size_t index(std::size_t n) { return static_cast<std::size_t>(bounded(n)); }

  /// Forks a decorrelated child generator (stable given call order).
  Rng fork() { return Rng(next_u64()); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  /// Unbiased bounded draw via rejection (Lemire-style would be faster
  /// but simulation draws are not a bottleneck).
  std::uint64_t bounded(std::uint64_t n) {
    const std::uint64_t threshold = (0 - n) % n;
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % n;
    }
  }

  std::uint64_t state_[4]{};
};

}  // namespace livenet
