#include "upa/exclusion.h"

#include <algorithm>

#include "common/status.h"

namespace upa::core {

/// Upper bound on the scan's block count. Boundaries are a function of
/// n alone, and every output's combine shape follows from them, so keeping
/// them fixed keeps every output bit fixed.
constexpr size_t kScanMaxBlocks = 64;

std::vector<Vec> ExclusionAggregate(const std::vector<Vec>& mapped) {
  UPA_CHECK_MSG(!mapped.empty(), "exclusion over an empty sample");
  const size_t n = mapped.size();
  const size_t per =
      std::max<size_t>(1, (n + kScanMaxBlocks - 1) / kScanMaxBlocks);
  const size_t blocks = (n + per - 1) / per;
  auto block_range = [&](size_t c) {
    return std::pair<size_t, size_t>{c * per, std::min(n, (c + 1) * per)};
  };
  // Pass 1: local prefix/suffix scans per block.
  // local_prefix[c][k] = m[b] ⊕ ... ⊕ m[b+k-1], local_suffix[c][k] =
  // m[b+k] ⊕ ... ⊕ m[e-1] for block [b, e). Both folds are left-to-right /
  // right-to-left within the block — a fixed association order.
  std::vector<std::vector<Vec>> local_prefix(blocks), local_suffix(blocks);
  for (size_t c = 0; c < blocks; ++c) {
    auto [b, e] = block_range(c);
    const size_t len = e - b;
    local_prefix[c].resize(len + 1);
    local_suffix[c].resize(len + 1);
    local_prefix[c][0] = VecSum::Identity();
    for (size_t k = 0; k < len; ++k) {
      local_prefix[c][k + 1] = VecSum::Combine(local_prefix[c][k], mapped[b + k]);
    }
    local_suffix[c][len] = VecSum::Identity();
    for (size_t k = len; k-- > 0;) {
      local_suffix[c][k] = VecSum::Combine(local_suffix[c][k + 1], mapped[b + k]);
    }
  }

  // Pass 2 (O(blocks) combines): fold block totals into
  // before[c] = R(blocks < c) and after[c] = R(blocks > c).
  std::vector<Vec> before(blocks), after(blocks);
  before[0] = VecSum::Identity();
  for (size_t c = 1; c < blocks; ++c) {
    before[c] = VecSum::Combine(before[c - 1], local_prefix[c - 1].back());
  }
  after[blocks - 1] = VecSum::Identity();
  for (size_t c = blocks - 1; c-- > 0;) {
    after[c] = VecSum::Combine(after[c + 1], local_suffix[c + 1].front());
  }

  // Pass 3: emit every exclusion with one fixed combine shape.
  std::vector<Vec> out(n);
  for (size_t c = 0; c < blocks; ++c) {
    auto [b, e] = block_range(c);
    for (size_t k = 0; k < e - b; ++k) {
      out[b + k] = VecSum::Combine(
          VecSum::Combine(before[c], local_prefix[c][k]),
          VecSum::Combine(local_suffix[c][k + 1], after[c]));
    }
  }
  return out;
}

std::vector<Vec> NaiveExclusionAggregate(const std::vector<Vec>& mapped) {
  UPA_CHECK_MSG(!mapped.empty(), "exclusion over an empty sample");
  const size_t n = mapped.size();
  std::vector<Vec> out(n);
  for (size_t i = 0; i < n; ++i) {
    Vec acc = VecSum::Identity();
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      acc = VecSum::Combine(std::move(acc), mapped[j]);
    }
    out[i] = std::move(acc);
  }
  return out;
}

Vec TotalAggregate(const std::vector<Vec>& mapped) {
  return VecSum::Reduce(mapped);
}

}  // namespace upa::core
