#ifndef QMQO_UTIL_RNG_H_
#define QMQO_UTIL_RNG_H_

/// \file rng.h
/// Deterministic pseudo-random number generation.
///
/// All randomized components of the library (workload generators, annealers,
/// genetic algorithm, ...) take an explicit `Rng*` so that every experiment
/// is reproducible from a single seed. `Rng::Fork` derives independent child
/// streams, which keeps parallel or per-restart randomness decoupled from the
/// consumption pattern of the parent stream.

#include <cstdint>
#include <random>
#include <vector>

namespace qmqo {

/// Seedable pseudo-random number generator (xoshiro-quality via mt19937_64).
class Rng {
 public:
  /// Creates a generator from a 64-bit seed; equal seeds yield equal streams.
  explicit Rng(uint64_t seed) : engine_(Scramble(seed)), seed_(seed) {}

  /// Returns the seed this generator was constructed with.
  uint64_t seed() const { return seed_; }

  /// Returns the next raw 64-bit value.
  uint64_t Next() { return engine_(); }

  /// Returns a uniform integer in the inclusive range [lo, hi].
  int UniformInt(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Returns a uniform 64-bit integer in the inclusive range [lo, hi].
  int64_t UniformInt64(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Returns a uniform double in the half-open range [lo, hi).
  double UniformReal(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Returns true with probability `p` (clamped to [0,1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Returns a normally distributed double.
  double Gaussian(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Uniformly shuffles `values` in place.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (size_t i = values->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt64(0, static_cast<int64_t>(i) - 1));
      std::swap((*values)[i - 1], (*values)[j]);
    }
  }

  /// Picks `count` distinct indices from [0, n) uniformly at random.
  std::vector<int> SampleWithoutReplacement(int n, int count);

  /// Derives an independent child generator; children with distinct `salt`
  /// values are decorrelated from each other and from the parent. Depends
  /// only on the construction seed (not on draws made so far), so forking
  /// is safe from concurrent reader threads and independent of fork order.
  Rng Fork(uint64_t salt) const {
    return Rng(Scramble(seed_ ^ (0x9e3779b97f4a7c15ULL * (salt + 1))));
  }

  /// Access to the underlying engine for std distributions.
  std::mt19937_64& engine() { return engine_; }

 private:
  /// splitmix64 finalizer; decorrelates sequential seeds.
  static uint64_t Scramble(uint64_t x);

  std::mt19937_64 engine_;
  uint64_t seed_;
};

}  // namespace qmqo

#endif  // QMQO_UTIL_RNG_H_
