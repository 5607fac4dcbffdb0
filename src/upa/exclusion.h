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
// The values are flat (VecRows): n rows of dim doubles in one buffer, and
// every scan array is one more buffer, so no combine allocates. The
// reducer's identity is a row of -0.0, which every sum passes through
// unchanged, so the folds need no branch for it and give the bits the
// per-record Vec scan gave; which results hold no value at all is the
// caller's to track.
//
// NaiveExclusionAggregate keeps the paper's loop as the reference the scan
// must agree with to float tolerance (tested); bench_ablation measures the
// gap.
#pragma once

#include <span>
#include <vector>

#include "upa/types.h"

namespace upa::core {

/// Row i of the result = R over {row j of `mapped` : j != i}, by the block
/// scan. `mapped` holds n ≥ 1 rows of `dim` values.
std::vector<double> ExclusionAggregate(std::span<const double> mapped,
                                       size_t dim);

/// The paper's loop: recombines the n-1 other rows for each i (O(n²)).
/// `mapped` holds n ≥ 1 rows of `dim` values.
std::vector<double> NaiveExclusionAggregate(std::span<const double> mapped,
                                            size_t dim);

/// Total reduction R over the rows of `rows` (of `dim` values each): the
/// identity, an empty Vec, when no row holds a value.
Vec TotalAggregate(const VecRows& rows, size_t dim);

}  // namespace upa::core
