// ExactSum: correctly-rounded floating-point accumulation with a fixed-size
// superaccumulator (R. M. Neal, "Fast exact summation using small and large
// superaccumulators", arXiv:1505.05571).
//
// The accumulated value is the *exact* real-number sum of everything added,
// rounded to double once at Round(). Because the exact sum of a multiset
// does not depend on the order its elements are added in, any two
// executions that add the same multiset of weights — in any order, under
// any chunking, on any pool size — produce bit-identical results. This is
// what lets the columnar engine and the row oracle agree exactly
// (tests/relational_columnar_test.cpp) and what makes every aggregate
// independent of engine partitioning (DESIGN.md §7 determinism argument).
//
// Layout: kChunks signed 64-bit chunks, each holding one 32-bit digit, so
// the value is Σ chunk[i] · 2^(32i − 1074) and every finite double,
// subnormals included, is a whole number of 2^-1074 units. An add splits
// the 53-bit significand across two adjacent chunks: no loop, no
// allocation. Chunks may run past 32 bits between carry propagations;
// each add moves a chunk by less than 2^52, so carries propagate every
// kCarryEvery adds, long before an int64 could overflow. A finite sum
// never overflows inside the accumulator: only Round() saturates to ±inf.
//
// Special values follow IEEE: ±inf and NaN are counted beside the chunks.
// Any NaN, or +inf together with -inf, rounds to the canonical quiet NaN;
// +inf alone to +inf, -inf alone to -inf. An exact zero is -0.0 iff at
// least one value was added and every one was -0.0; the empty sum is +0.0.
//
// Cost: Add() is a handful of integer operations and two chunk updates,
// whatever the partial sum holds. The reference implementation the tests
// check it against is tests/exact_sum_reference.h.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace upa {

class ExactSum {
 public:
  ExactSum() = default;

  /// Add one value to the exact accumulator.
  void Add(double x) {
    const uint64_t bits = std::bit_cast<uint64_t>(x);
    not_neg_zero_ |= bits ^ kSignBit;
    not_pos_zero_ |= bits;
    const uint64_t biased = (bits >> 52) & 0x7ff;
    if (biased == 0x7ff) [[unlikely]] {
      specials_ |= (bits & kMantissaMask) != 0 ? kNaN
                   : (bits & kSignBit) != 0    ? kNegInf
                                               : kPosInf;
      return;
    }
    // x = significand · 2^(unit − 1074): a normal's biased exponent e puts
    // its hidden-bit significand at unit e − 1, a subnormal's at unit 0.
    const uint64_t normal = biased != 0 ? 1 : 0;
    const uint64_t significand = (bits & kMantissaMask) | (normal << 52);
    const uint64_t unit = biased - normal;
    const size_t chunk = unit >> 5;
    const unsigned shift = unit & 31;
    const auto low = static_cast<int64_t>((significand << shift) & kDigitMask);
    const auto high = static_cast<int64_t>(significand >> (32 - shift));
    const int64_t negate = -static_cast<int64_t>(bits >> 63);  // 0 or -1
    chunks_[chunk] += (low ^ negate) - negate;
    chunks_[chunk + 1] += (high ^ negate) - negate;
    if (++adds_ == kCarryEvery) Normalize();
  }

  /// Fold another accumulator in. Exactness makes this order-insensitive.
  void Merge(const ExactSum& other) {
    for (size_t i = 0; i < kChunks; ++i) chunks_[i] += other.chunks_[i];
    Absorb(other.adds_);
    specials_ |= other.specials_;
    not_neg_zero_ |= other.not_neg_zero_;
    not_pos_zero_ |= other.not_pos_zero_;
  }

  /// Take another accumulator out: the result is the exact sum of this
  /// multiset together with the negation of `other`'s (so -inf for each of
  /// its +inf, and -0.0 for each of its +0.0).
  void Subtract(const ExactSum& other) {
    const uint8_t specials = other.specials_;
    const uint64_t not_neg_zero = other.not_neg_zero_;
    const uint64_t not_pos_zero = other.not_pos_zero_;
    for (size_t i = 0; i < kChunks; ++i) chunks_[i] -= other.chunks_[i];
    Absorb(other.adds_);
    specials_ |= (specials & kNaN) | ((specials & kPosInf) != 0 ? kNegInf : 0) |
                 ((specials & kNegInf) != 0 ? kPosInf : 0);
    not_neg_zero_ |= not_pos_zero;
    not_pos_zero_ |= not_neg_zero;
  }

  /// False once an infinite or NaN value was added. A finite sum stays
  /// exact however large it grows; Round() alone saturates to ±inf.
  bool Finite() const { return specials_ == 0; }

  /// The exact sum rounded to the nearest double (round-half-to-even),
  /// exactly as math.fsum would return it for a finite result. Does not
  /// modify the accumulator. Every NaN result is the canonical quiet NaN.
  double Round() const {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    if (specials_ != 0) {
      if ((specials_ & kNaN) != 0 || specials_ == (kPosInf | kNegInf)) {
        return std::numeric_limits<double>::quiet_NaN();
      }
      return specials_ == kPosInf ? kInf : -kInf;
    }
    ExactSum v = *this;
    v.Normalize();
    // After Normalize every chunk below the top is a digit in [0, 2^32),
    // and the sign of the value is the sign of the top chunk.
    const bool negative = v.chunks_[kTop] < 0;
    if (negative) {
      for (int64_t& c : v.chunks_) c = -c;
      v.Normalize();
    }
    size_t k = kTop;
    while (k > 0 && v.chunks_[k] == 0) --k;
    if (v.chunks_[k] == 0) {
      return not_neg_zero_ == 0 && not_pos_zero_ != 0 ? -0.0 : 0.0;
    }
    if (k == kTop) return negative ? -kInf : kInf;  // beyond 2^1038
    // A 64-bit window whose top bit is the value's leading bit: the top
    // non-zero digit and the two below it, plus a sticky bit for the rest.
    auto digit = [&v](size_t i, size_t below) -> uint64_t {
      return i >= below ? static_cast<uint64_t>(v.chunks_[i - below]) : 0;
    };
    const uint64_t d0 = digit(k, 0), d1 = digit(k, 1), d2 = digit(k, 2);
    const int lead = 63 - std::countl_zero(d0);  // 0..31
    const uint64_t window =
        (d0 << (63 - lead)) | (d1 << (31 - lead)) | (d2 >> (lead + 1));
    bool sticky = (d2 & ((uint64_t{1} << (lead + 1)) - 1)) != 0;
    for (size_t i = 0; !sticky && i + 3 <= k; ++i) sticky = v.chunks_[i] != 0;
    // Round half to even to 53 bits. A value below 2^53 units (the
    // subnormal range) has no bits below the window's 53, so it is exact.
    uint64_t significand = window >> 11;
    const uint64_t rest = window & 0x7ff;
    if (rest > 0x400 || (rest == 0x400 && (sticky || (significand & 1)))) {
      ++significand;
    }
    const int exponent = 32 * static_cast<int>(k) + lead - 52 - 1074;
    const double r = std::ldexp(static_cast<double>(significand), exponent);
    return negative ? -r : r;
  }

 private:
  static constexpr size_t kChunks = 67;
  static constexpr size_t kTop = kChunks - 1;
  static constexpr int32_t kCarryEvery = 1000;
  static constexpr uint64_t kSignBit = uint64_t{1} << 63;
  static constexpr uint64_t kMantissaMask = (uint64_t{1} << 52) - 1;
  static constexpr uint64_t kDigitMask = 0xffffffff;
  static constexpr uint8_t kPosInf = 1, kNegInf = 2, kNaN = 4;

  /// Propagates carries so every chunk below the top is a digit in
  /// [0, 2^32); the top chunk keeps the sign.
  void Normalize() {
    for (size_t i = 0; i < kTop; ++i) {
      const int64_t carry = chunks_[i] >> 32;  // floor division by 2^32
      chunks_[i] &= static_cast<int64_t>(kDigitMask);
      chunks_[i + 1] += carry;
    }
    adds_ = 0;
  }

  /// Accounts for a chunk-wise merge with an accumulator `other_adds` adds
  /// past its last Normalize. Every chunk is below (adds_ + 1) · 2^52 in
  /// magnitude, so both sides' bounds sum to under 2000 · 2^52 < 2^63.
  void Absorb(int32_t other_adds) {
    adds_ += other_adds + 1;
    if (adds_ >= kCarryEvery) Normalize();
  }

  std::array<int64_t, kChunks> chunks_{};
  // Each is 0 while every value added so far was -0.0 (+0.0); both are 0
  // only while nothing was added.
  uint64_t not_neg_zero_ = 0;
  uint64_t not_pos_zero_ = 0;
  int32_t adds_ = 0;  // adds since the last Normalize
  uint8_t specials_ = 0;
};

}  // namespace upa
