#include "upa/exclusion.h"

#include <algorithm>

#include "common/status.h"

namespace upa::core {

/// Upper bound on the scan's block count. Boundaries are a function of
/// n alone, and every output's combine shape follows from them, so keeping
/// them fixed keeps every output bit fixed.
constexpr size_t kScanMaxBlocks = 64;

namespace {

/// Rows in `mapped`; aborts unless there is at least one whole row.
size_t RowsOf(std::span<const double> mapped, size_t dim) {
  UPA_CHECK_MSG(dim > 0 && mapped.size() % dim == 0,
                "exclusion over rows of unequal dimension");
  UPA_CHECK_MSG(!mapped.empty(), "exclusion over an empty sample");
  return mapped.size() / dim;
}

/// dst = a ⊕ b, element-wise over dim values.
void Combine(const double* a, const double* b, size_t dim, double* dst) {
  for (size_t d = 0; d < dim; ++d) dst[d] = CellSum(a[d], b[d]);
}

}  // namespace

std::vector<double> ExclusionAggregate(std::span<const double> mapped,
                                       size_t dim) {
  const size_t n = RowsOf(mapped, dim);
  const double* m = mapped.data();
  const size_t per =
      std::max<size_t>(1, (n + kScanMaxBlocks - 1) / kScanMaxBlocks);
  const size_t blocks = (n + per - 1) / per;
  auto block_len = [&](size_t c) {
    return std::min(n, (c + 1) * per) - c * per;
  };

  // One scratch buffer for every scan array, each entry a row of dim. Block
  // c covers rows [c·per, c·per + len) and has len + 1 local prefix and
  // suffix entries; its entry k sits at row c·per + c + k of `prefix` and
  // `suffix`. Every entry starts as the identity, -0.0.
  std::vector<double> scratch(2 * (n + blocks) * dim + 2 * blocks * dim, -0.0);
  double* prefix = scratch.data();
  double* suffix = prefix + (n + blocks) * dim;
  double* before = suffix + (n + blocks) * dim;
  double* after = before + blocks * dim;
  auto local = [&](double* base, size_t c, size_t k) {
    return base + (c * per + c + k) * dim;
  };

  // Pass 1: local prefix/suffix scans per block.
  // local_prefix[c][k] = m[b] ⊕ ... ⊕ m[b+k-1], local_suffix[c][k] =
  // m[b+k] ⊕ ... ⊕ m[e-1] for block [b, e). Both folds are left-to-right /
  // right-to-left within the block — a fixed association order.
  for (size_t c = 0; c < blocks; ++c) {
    const size_t b = c * per, len = block_len(c);
    for (size_t k = 0; k < len; ++k) {
      Combine(local(prefix, c, k), m + (b + k) * dim, dim,
              local(prefix, c, k + 1));
    }
    for (size_t k = len; k-- > 0;) {
      Combine(local(suffix, c, k + 1), m + (b + k) * dim, dim,
              local(suffix, c, k));
    }
  }

  // Pass 2 (O(blocks) combines): fold block totals into
  // before[c] = R(blocks < c) and after[c] = R(blocks > c).
  for (size_t c = 1; c < blocks; ++c) {
    Combine(before + (c - 1) * dim, local(prefix, c - 1, block_len(c - 1)),
            dim, before + c * dim);
  }
  for (size_t c = blocks - 1; c-- > 0;) {
    Combine(after + (c + 1) * dim, local(suffix, c + 1, 0), dim,
            after + c * dim);
  }

  // Pass 3: emit every exclusion with one fixed combine shape.
  std::vector<double> out(n * dim);
  for (size_t c = 0; c < blocks; ++c) {
    const size_t b = c * per, len = block_len(c);
    const double* bc = before + c * dim;
    const double* ac = after + c * dim;
    for (size_t k = 0; k < len; ++k) {
      const double* lp = local(prefix, c, k);
      const double* ls = local(suffix, c, k + 1);
      double* dst = out.data() + (b + k) * dim;
      for (size_t d = 0; d < dim; ++d) {
        dst[d] = CellSum(CellSum(bc[d], lp[d]), CellSum(ls[d], ac[d]));
      }
    }
  }
  return out;
}

std::vector<double> NaiveExclusionAggregate(std::span<const double> mapped,
                                            size_t dim) {
  const size_t n = RowsOf(mapped, dim);
  std::vector<double> out(n * dim, -0.0);
  for (size_t i = 0; i < n; ++i) {
    double* acc = out.data() + i * dim;
    for (size_t j = 0; j < n; ++j) {
      if (j != i) Combine(acc, mapped.data() + j * dim, dim, acc);
    }
  }
  return out;
}

Vec TotalAggregate(const VecRows& rows, size_t dim) {
  const size_t n = rows.values.size() / dim;
  if (rows.CountValues(n) == 0) return VecSum::Identity();
  Vec acc(dim, -0.0);
  for (size_t i = 0; i < n; ++i) {
    Combine(acc.data(), rows.values.data() + i * dim, dim, acc.data());
  }
  return acc;
}

}  // namespace upa::core
