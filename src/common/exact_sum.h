// ExactSum: correctly-rounded floating-point accumulation (Shewchuk
// expansion partials, the algorithm behind Python's math.fsum).
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
// Cost: Add() is O(#partials); for sums of similar-magnitude values the
// partials list stays at 2–3 entries, so the amortized cost is a handful of
// flops per element.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

namespace upa {

class ExactSum {
 public:
  ExactSum() = default;

  /// Add one value to the exact accumulator.
  void Add(double x) {
    // Maintain the invariant that partials_ is a list of non-overlapping
    // doubles in increasing magnitude whose exact sum equals the exact sum
    // of everything added so far (Shewchuk's GROW-EXPANSION via two-sum).
    size_t out = 0;
    for (size_t j = 0; j < partials_.size(); ++j) {
      double y = partials_[j];
      if (std::fabs(x) < std::fabs(y)) std::swap(x, y);
      double hi = x + y;
      double lo = y - (hi - x);
      if (lo != 0.0) partials_[out++] = lo;
      x = hi;
    }
    partials_.resize(out);
    partials_.push_back(x);
  }

  /// Fold another accumulator in. Exactness makes this order-insensitive.
  void Merge(const ExactSum& other) {
    for (double p : other.partials_) Add(p);
  }

  /// Take another accumulator out: negation is exact, so the result is the
  /// exact difference of the two multisets' sums.
  void Subtract(const ExactSum& other) {
    for (double p : other.partials_) Add(-p);
  }

  /// False once an infinite or NaN value was added or a partial overflowed;
  /// the sum is then no longer exact.
  bool Finite() const {
    for (double p : partials_) {
      if (!std::isfinite(p)) return false;
    }
    return true;
  }

  bool Empty() const { return partials_.empty(); }

  /// The exact sum rounded to the nearest double (round-half-to-even),
  /// exactly as math.fsum would return it. Does not modify the accumulator.
  /// Every NaN result is the canonical quiet NaN: the sign the hardware
  /// gives a NaN depends on whether it came from inf − inf or from a NaN
  /// operand, and so on the order the values were added in.
  double Round() const {
    if (partials_.empty()) return 0.0;
    // Sum from the largest partial down; because partials are
    // non-overlapping, the first inexact addition determines the result up
    // to a possible one-ulp rounding fix, applied below (CPython fsum).
    size_t n = partials_.size();
    double hi = partials_[--n];
    double lo = 0.0;
    while (n > 0) {
      double x = hi;
      double y = partials_[--n];
      hi = x + y;
      double yr = hi - x;
      lo = y - yr;
      if (lo != 0.0) break;
    }
    // Round-half-to-even correction: if the remainder `lo` is exactly half
    // an ulp and the next partial pushes it past the tie, adjust.
    if (n > 0 && ((lo < 0.0 && partials_[n - 1] < 0.0) ||
                  (lo > 0.0 && partials_[n - 1] > 0.0))) {
      double y = lo * 2.0;
      double x = hi + y;
      double yr = x - hi;
      if (y == yr) hi = x;
    }
    return std::isnan(hi) ? std::numeric_limits<double>::quiet_NaN() : hi;
  }

  void Reset() { partials_.clear(); }

 private:
  std::vector<double> partials_;
};

}  // namespace upa
