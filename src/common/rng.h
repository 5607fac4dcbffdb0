// Deterministic, splittable random number generation.
//
// All randomness in the repository flows from named streams derived from an
// experiment seed, so every test and benchmark is reproducible bit-for-bit
// (DESIGN.md §5 "Determinism"). The core generator is PCG32 seeded through
// SplitMix64, which is also used to derive independent substreams.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace upa {

/// SplitMix64: tiny, high-quality 64-bit mixer. Used for seeding and for
/// deriving independent substreams from (seed, name) pairs.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// PCG32 (Melissa O'Neill): small-state generator with good statistical
/// quality; the sequence constant gives cheap independent streams.
class Pcg32 {
 public:
  using result_type = uint32_t;

  Pcg32() : Pcg32(0x853c49e6748fea9bULL, 0xda3e39cb94b95bdbULL) {}
  Pcg32(uint64_t seed, uint64_t stream) { Seed(seed, stream); }

  void Seed(uint64_t seed, uint64_t stream) {
    state_ = 0;
    inc_ = (stream << 1u) | 1u;
    Next();
    state_ += seed;
    Next();
  }

  uint32_t Next() {
    uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    uint32_t xorshifted = static_cast<uint32_t>(((old >> 18u) ^ old) >> 27u);
    uint32_t rot = static_cast<uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  // UniformRandomBitGenerator interface (usable with <random> adaptors).
  static constexpr uint32_t min() { return 0; }
  static constexpr uint32_t max() { return 0xffffffffu; }
  uint32_t operator()() { return Next(); }

 private:
  uint64_t state_ = 0;
  uint64_t inc_ = 1;
};

/// A named random stream: all distributions the project needs, backed by
/// PCG32. Derive one per logical purpose, e.g.
/// `Rng rng = Rng::ForStream(seed, "fig2a/trial3/sampler");`
class Rng {
 public:
  explicit Rng(uint64_t seed, uint64_t stream = 0) : gen_(seed, stream) {}

  /// Derives an independent stream from (seed, name). Same inputs always
  /// give the same stream.
  static Rng ForStream(uint64_t seed, std::string_view name);

  uint32_t NextU32() { return gen_.Next(); }
  uint64_t NextU64() {
    return (static_cast<uint64_t>(gen_.Next()) << 32) | gen_.Next();
  }

  /// Uniform in [0, n). n must be > 0. Uses rejection to avoid modulo bias.
  uint64_t UniformU64(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Standard normal via Box–Muller (deterministic, no cached spare).
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Laplace(0, scale) sample via inverse CDF.
  double Laplace(double scale);

  /// Exponential(rate) sample.
  double Exponential(double rate);

  /// Bernoulli(p).
  bool Bernoulli(double p);

  /// Sample k distinct indices uniformly from [0, n) (k <= n).
  /// Returned in sorted order. Floyd's algorithm over a membership bitmap:
  /// k draws, then O(n/64) words to read the sorted indices off.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformU64(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  Pcg32& generator() { return gen_; }

 private:
  Pcg32 gen_;
};

/// Zipf-distributed integers in [1, n] with exponent s (s <= 0 → uniform).
/// Uses the classic inverse-CDF-over-harmonic approximation; intended for
/// workload skew, not for exact distribution tests. The harmonic
/// normaliser depends on (n, s) alone, so it is computed once, here; each
/// draw takes one uniform double from the Rng (one uniform integer when
/// s <= 0).
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double s);

  uint64_t Draw(Rng& rng) const;

 private:
  uint64_t n_;
  double s_;
  double one_minus_s_;
  double hn_;  // the approximate harmonic number H(n, s)
};

}  // namespace upa
