// Core value types for UPA's union-preserving aggregation.
//
// Every UPA query is decomposed as f(x) = scalarize(post(R(M(x)))) where
//   M : record -> Vec          (the Mapper; pure, per-record)
//   R : (Vec, Vec) -> Vec      (the Reducer; commutative + associative)
//   post : Vec -> Vec          (record-independent post-processing, e.g.
//                               turning gradient sums into updated weights)
//   scalarize : Vec -> double  (the released output value, the quantity the
//                               paper perturbs and plots)
//
// The reduce value is a fixed-dimension vector of doubles: dimension 1 for
// counts/sums (TPC-H), k*d+k for KMeans partial sums, d+1 for LR gradients.
// The shipped reducer is element-wise addition (VecSum), whose monoid
// properties are what justify Algorithm 1's reuse of R(M(S')) — and what
// the property tests verify.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"

namespace upa::core {

using Vec = std::vector<double>;

/// One cell of a ⊕ b, bit for bit what `a[i] += b[i]` gives on x86 when a
/// is the first operand: a NaN sum is a's NaN if a is one, else b's, else
/// (inf meeting -inf) the hardware's. Written out because a compiler may
/// put either operand of a + b first, and a NaN's sign follows that choice.
/// (Quiet NaNs, the only kind arithmetic makes; the hardware would quiet a
/// signalling one.)
inline double CellSum(double a, double b) {
  const double sum = a + b;
  if (!std::isnan(sum)) [[likely]] return sum;
  return std::isnan(a) ? a : std::isnan(b) ? b : sum;
}

/// Element-wise-sum monoid over Vec. The empty vector is the identity, so
/// reductions over empty partitions need no special casing.
struct VecSum {
  /// Identity element.
  static Vec Identity() { return {}; }

  /// a ⊕ b. Either side may be the empty identity. Each cell sums through
  /// CellSum, so a NaN sum's sign does not depend on the build.
  static Vec Combine(Vec a, const Vec& b) {
    if (a.empty()) return b;
    if (b.empty()) return a;
    UPA_CHECK_MSG(a.size() == b.size(), "VecSum requires equal dimensions");
    for (size_t i = 0; i < a.size(); ++i) a[i] = CellSum(a[i], b[i]);
    return a;
  }

  /// Inverse of Combine on the second argument: a ⊖ b. Exists because the
  /// monoid is actually a group; the exact-incremental ground truth and
  /// some fast paths use it, but Algorithm 1 itself never requires it.
  static Vec Subtract(Vec a, const Vec& b) {
    if (b.empty()) return a;
    if (a.empty()) {
      Vec neg(b.size());
      for (size_t i = 0; i < b.size(); ++i) neg[i] = -b[i];
      return neg;
    }
    UPA_CHECK_MSG(a.size() == b.size(), "VecSum requires equal dimensions");
    for (size_t i = 0; i < a.size(); ++i) a[i] -= b[i];
    return a;
  }

  /// Reduce a sequence.
  static Vec Reduce(const std::vector<Vec>& values) {
    Vec acc = Identity();
    for (const Vec& v : values) acc = Combine(std::move(acc), v);
    return acc;
  }
};

/// Mapped values of one dimension in one row-major buffer: row i is
/// values[i·dim, (i+1)·dim). A row may hold the reducer's identity, the
/// empty Vec ("no value"). Its cells are -0.0, the one double that leaves
/// every sum it joins bit-for-bit unchanged (0.0 does not: 0.0 + -0.0 is
/// +0.0), so folds over rows need no branch; `identity` flags it, so a
/// fold over identity rows alone still reads as no value.
struct VecRows {
  std::vector<double> values;
  /// One flag per row, or empty when no row holds the identity.
  std::vector<uint8_t> identity;

  bool IsIdentity(size_t row) const {
    return !identity.empty() && identity[row] != 0;
  }
  /// Rows holding a value.
  size_t CountValues(size_t rows) const;
  /// Appends `v` as one row of `dim` values: the identity when `v` is
  /// empty, and an abort for any other length but dim.
  void Append(const Vec& v, size_t dim);
};

/// Returns v[0] for 1-dimensional values; the default scalarizer for
/// count/sum queries. Empty (identity) values scalarize to 0.
inline double ScalarOf(const Vec& v) { return v.empty() ? 0.0 : v[0]; }

/// L2 norm — the default scalarizer for vector-valued ML outputs.
double L2Norm(const Vec& v);

}  // namespace upa::core
