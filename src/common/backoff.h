// Seeded, jittered, doubling retry delays: a router's shard redials and a
// supervisor's shard respawns.
#pragma once

#include <algorithm>
#include <cstdint>

namespace upa {

/// One owner's stream of retry delays. Each peer keeps its own interval,
/// which starts at initial_ms(); Next scales it by a pseudo-random factor
/// in [1 - kJitter/2, 1 + kJitter/2) from the owner's one seeded stream,
/// so peers felled by one correlated failure do not retry in lockstep,
/// and a chaos run reproduces from its seed. The owner serializes calls.
class JitteredBackoff {
 public:
  static constexpr double kJitter = 0.5;

  JitteredBackoff(double initial_ms, double max_ms, uint64_t seed)
      : initial_ms_(initial_ms), max_ms_(max_ms), state_(seed) {}

  double initial_ms() const { return initial_ms_; }

  /// The delay before a peer whose interval is `*interval_ms` retries.
  /// Advances the stream and doubles `*interval_ms`, up to the maximum.
  double Next(double* interval_ms) {
    // 64-bit LCG: cheap, seedable and reproducible across runs.
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    const double u = static_cast<double>((state_ >> 33) & 0xFFFFFFu) /
                     static_cast<double>(0x1000000u);
    const double delay = *interval_ms * (1.0 - kJitter / 2.0 + kJitter * u);
    *interval_ms = std::min(*interval_ms * 2.0, max_ms_);
    return delay;
  }

 private:
  double initial_ms_;
  double max_ms_;
  uint64_t state_;
};

}  // namespace upa
