// Group-privacy extension (paper §VI-E, "future work"): protect a group of
// up to k individuals rather than one, by reusing the sampled-neighbour
// influences Algorithm 1 already computed.
//
// For the commutative-associative (additive) reducers UPA targets,
// removing a group G changes the reduced value by the sum of the group's
// mapped values, so the largest achievable k-group influence on the output
// is bounded (to first order, and exactly for linear scalarizations) by
// the sum of the k largest single-record influences. The estimator below
// therefore returns Σ of the k largest sampled |f(x) − f(y)| — no extra
// query executions needed, exactly the reuse §VI-E suggests.
//
// The same caveat as single-record inference applies: this is an estimate
// from a sample; enforcement still comes from clamping into the induced
// range.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/normal_fit.h"

namespace upa::core {

struct GroupSensitivityEstimate {
  size_t group_size = 1;
  /// Estimated max |f(x) − f(y)| over datasets y differing from x by up
  /// to `group_size` records.
  double sensitivity = 0.0;
  /// Clamping range for the release (centred on f(x)).
  Interval out_range;
  /// The single-record influences the estimate was built from (sorted
  /// descending, truncated to group_size).
  std::vector<double> top_influences;
};

/// Estimates k-group sensitivity for every k = 1..max_k (inclusive; entry
/// k-1 is group size k) from one UPA run's sampled-neighbour outputs,
/// reusing one sort of the influences. `f_x` is the query output the
/// neighbours were sampled around (UpaRunResult::raw_output before
/// enforcement; the neighbour list is UpaRunResult::neighbour_outputs).
/// max_k must be >= 1.
std::vector<GroupSensitivityEstimate> GroupSensitivitySweep(
    std::span<const double> neighbour_outputs, double f_x, size_t max_k);

}  // namespace upa::core
