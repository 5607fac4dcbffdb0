#include "common/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>

#include "common/hash.h"

namespace upa {

Rng Rng::ForStream(uint64_t seed, std::string_view name) {
  SplitMix64 mixer(seed ^ Fnv1a(name));
  uint64_t s = mixer.Next();
  uint64_t stream = mixer.Next();
  return Rng(s, stream);
}

uint64_t Rng::UniformU64(uint64_t n) {
  UPA_CHECK_MSG(n > 0, "UniformU64 requires n > 0");
  // Rejection sampling on the top of the range to remove modulo bias.
  uint64_t threshold = (~uint64_t{0} - n + 1) % n;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  UPA_CHECK_MSG(lo <= hi, "UniformInt requires lo <= hi");
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(NextU64());  // full 64-bit range
  return lo + static_cast<int64_t>(UniformU64(span));
}

double Rng::UniformDouble() {
  // 53 random bits → [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

double Rng::Normal(double mean, double stddev) {
  // Box–Muller; u1 in (0,1] to avoid log(0).
  double u1 = 1.0 - UniformDouble();
  double u2 = UniformDouble();
  double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::Laplace(double scale) {
  UPA_CHECK_MSG(scale >= 0.0, "Laplace scale must be non-negative");
  if (scale == 0.0) return 0.0;
  double u = UniformDouble() - 0.5;  // (-0.5, 0.5)
  double sign = (u < 0.0) ? -1.0 : 1.0;
  return -scale * sign * std::log(1.0 - 2.0 * std::fabs(u));
}

double Rng::Exponential(double rate) {
  UPA_CHECK_MSG(rate > 0.0, "Exponential rate must be positive");
  return -std::log(1.0 - UniformDouble()) / rate;
}

bool Rng::Bernoulli(double p) { return UniformDouble() < p; }

ZipfSampler::ZipfSampler(uint64_t n, double s)
    : n_(n), s_(s), one_minus_s_(1.0 - s), hn_(0.0) {
  UPA_CHECK_MSG(n > 0, "Zipf requires n > 0");
  if (s <= 0.0) return;
  // Inverse transform on the approximate harmonic CDF (integral form).
  // Accurate enough for generating skewed workloads.
  if (s == 1.0) {
    hn_ = std::log(static_cast<double>(n)) + 1.0;
  } else {
    hn_ = (std::pow(static_cast<double>(n), one_minus_s_) - 1.0) /
              one_minus_s_ +
          1.0;
  }
}

uint64_t ZipfSampler::Draw(Rng& rng) const {
  if (s_ <= 0.0) return 1 + rng.UniformU64(n_);
  double u = rng.UniformDouble();
  double target = u * hn_;
  if (s_ == 1.0) {
    double k = std::exp(target - 1.0);
    uint64_t r = static_cast<uint64_t>(k);
    return std::min<uint64_t>(std::max<uint64_t>(r, 1), n_);
  }
  double k = std::pow(target * one_minus_s_ + 1.0, 1.0 / one_minus_s_);
  if (!std::isfinite(k) || k < 1.0) return 1;
  uint64_t r = static_cast<uint64_t>(k);
  return std::min<uint64_t>(std::max<uint64_t>(r, 1), n_);
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  UPA_CHECK_MSG(k <= n, "cannot sample more items than the population");
  // Floyd's algorithm: for j in [n-k, n), pick t in [0, j]; take t, or j
  // when t is taken (j never is: every earlier pick is below j). Membership
  // is a bitmap over [0, n), so the sorted sample is read off its words.
  std::vector<uint64_t> taken((n + 63) / 64, 0);
  for (size_t j = n - k; j < n; ++j) {
    size_t t = static_cast<size_t>(UniformU64(j + 1));
    if ((taken[t >> 6] >> (t & 63)) & 1) t = j;
    taken[t >> 6] |= uint64_t{1} << (t & 63);
  }
  std::vector<size_t> out;
  out.reserve(k);
  for (size_t w = 0; w < taken.size(); ++w) {
    for (uint64_t bits = taken[w]; bits != 0; bits &= bits - 1) {
      out.push_back(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
    }
  }
  return out;
}

}  // namespace upa
