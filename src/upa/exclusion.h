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
// ExclusionAggregate runs that scan in chunks: each fixed-size block
// computes its local prefix/suffix arrays independently (parallel on the
// engine thread pool), a cheap sequential pass folds the block totals into
// per-block before/after values, and a second parallel pass emits
//
//   excl[i] = (before[c] ⊕ local_prefix) ⊕ (local_suffix ⊕ after[c]).
//
// Block boundaries depend only on n — never on the pool size — and every
// fold has a fixed association order, so the result is bit-identical
// whether it runs on 1 thread, N threads, or with no pool at all.
//
// NaiveExclusionAggregate keeps the paper's loop as the reference the scan
// must agree with to float tolerance (tested); bench_ablation measures the
// gap.
#pragma once

#include <vector>

#include "upa/types.h"

namespace upa {
class ThreadPool;
}  // namespace upa

namespace upa::core {

/// excl[i] = R over {mapped[j] : j != i}, by the chunked block scan.
/// mapped must be non-empty. With a null `pool` the same blocks run on the
/// calling thread with an identical result.
std::vector<Vec> ExclusionAggregate(const std::vector<Vec>& mapped,
                                    ThreadPool* pool = nullptr);

/// The paper's loop: recombines the n-1 other values for each i (O(n²)).
/// mapped must be non-empty.
std::vector<Vec> NaiveExclusionAggregate(const std::vector<Vec>& mapped);

/// Total reduction R(mapped).
Vec TotalAggregate(const std::vector<Vec>& mapped);

}  // namespace upa::core
