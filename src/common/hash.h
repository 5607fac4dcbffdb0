// Hashing helpers: combination, 64-bit mixing (shuffle partitioning), FNV-1a.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>

namespace upa {

/// boost-style hash combine.
inline size_t HashCombine(size_t seed, size_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// Finalizing 64-bit mixer (MurmurHash3 fmix64). Used by the shuffle
/// partitioner so that sequential keys spread across partitions.
inline uint64_t Mix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

/// FNV-1a 64 over bytes — the one copy: frame and journal checksums, file
/// stems, RNG stream seeds. Pass a previous result as `state` to continue
/// the hash over a second buffer (Fnv1a(b, Fnv1a(a)) == Fnv1a(a ++ b)).
inline uint64_t Fnv1a(std::string_view bytes,
                      uint64_t state = 0xcbf29ce484222325ULL) {
  uint64_t h = state;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace upa
