// Exclusion aggregation: R(S \ s_i) for every i.
//
// Algorithm 1 (lines 10–11) computes, for each sampled record s_i, the
// reduction of the sample set with s_i excluded. The paper's loop does this
// naively — O(n²) combines. Because the reducer is associative and
// commutative, the same n values can be obtained from prefix and suffix
// scans in O(n) combines:
//
//   excl[i] = prefix[i-1] ⊕ suffix[i+1]
//
// ExclusionAggregate runs that scan in blocks: each fixed-size block
// computes its local prefix/suffix arrays, a cheap pass folds the block
// totals into per-block before/after values, and a final pass emits
//
//   excl[i] = (before[c] ⊕ local_prefix) ⊕ (local_suffix ⊕ after[c]).
//
// Block boundaries depend only on n and every fold has a fixed association
// order, so the result is a pure function of `mapped`. It runs inline on
// the calling thread: the work is O(n·dim), far below one pool round-trip
// at the paper's n.
//
// NaiveExclusionAggregate keeps the paper's loop as the reference the scan
// must agree with to float tolerance (tested); bench_ablation measures the
// gap.
#pragma once

#include <vector>

#include "upa/types.h"

namespace upa::core {

/// excl[i] = R over {mapped[j] : j != i}, by the block scan. mapped must
/// be non-empty.
std::vector<Vec> ExclusionAggregate(const std::vector<Vec>& mapped);

/// The paper's loop: recombines the n-1 other values for each i (O(n²)).
/// mapped must be non-empty.
std::vector<Vec> NaiveExclusionAggregate(const std::vector<Vec>& mapped);

/// Total reduction R(mapped).
Vec TotalAggregate(const std::vector<Vec>& mapped);

}  // namespace upa::core
