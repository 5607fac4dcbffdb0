// ReferenceSum: correctly-rounded floating-point accumulation with
// Shewchuk expansion partials, the algorithm behind Python's math.fsum.
//
// The independent reference the tests check ExactSum against. Every engine
// sums through ExactSum, so the engine differentials cannot catch a
// summation bug that all engines share; this reference can. It is exact
// only while no partial overflows: once one does, or a non-finite value
// is added, its result is no longer the IEEE answer, and the tests compare
// finite results only.
//
// Cost: Add() is O(#partials) and grows a heap vector, which is why the
// engines no longer use it.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

namespace upa {

class ReferenceSum {
 public:
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

  /// False once an infinite or NaN value was added or a partial overflowed;
  /// the sum is then no longer exact.
  bool Finite() const {
    for (double p : partials_) {
      if (!std::isfinite(p)) return false;
    }
    return true;
  }

  /// The exact sum rounded to the nearest double (round-half-to-even),
  /// exactly as math.fsum would return it.
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

 private:
  std::vector<double> partials_;
};

}  // namespace upa
