// QueryInstance: the contract between a concrete query (TPC-H plan, KMeans,
// Linear Regression, or anything a user writes against the dp_api) and the
// generic UPA runner.
//
// The runner owns phases 1 (Partition & Sample), 3b (exclusion scans over
// the mapped sample), and 4 (iDP Enforcement). The query supplies
// `execute_phases`, which performs phase 2 (Parallel Map) and the S' half
// of phase 3 (Union-Preserving Reduce) on the engine — including, for join
// queries, the second join/shuffle pass over the sampled records that the
// paper's joinDP performs (§V-C).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/context.h"
#include "upa/types.h"

namespace upa::core {

/// What `execute_phases` returns: three flat batches of mapped values, all
/// of dimension `dim` (see VecRows), and the status of the passes that
/// made them.
struct MappedBatches {
  /// Values per row in every batch below (≥ 1). A query whose every record
  /// maps to the identity still says 1: its rows are identity rows.
  size_t dim = 1;
  /// Reduced value of each enforcer partition of S' (the records that were
  /// NOT sampled). Partition of record i is i % num_partitions. This is
  /// Algorithm 1's {R^(s')_j} — computed once and reused everywhere.
  VecRows sprime_partials;
  /// M(s_i) for each sampled record, aligned with `sample_indices`.
  VecRows sample_mapped;
  /// M(s̄_i) for each synthetic record drawn from the domain D \ x
  /// (the "added record" side of the neighbour sampling).
  VecRows domain_mapped;
  /// Not OK when a pass failed for a reason other than the request's
  /// cancel token (a query naming an unknown column, say): the batches are
  /// then partial, and the runner returns this status in place of a
  /// release.
  Status status;
};

struct QueryInstance {
  std::string name;
  engine::ExecContext* ctx = nullptr;
  /// |x|: number of records in the private input dataset.
  size_t num_records = 0;

  /// Phase 2 + S'-side of phase 3. `sample_indices` are the sorted global
  /// indices of S; `num_partitions` is the enforcer partition count
  /// (record i belongs to partition i % num_partitions); `num_domain` is
  /// how many synthetic domain records to map; `seed` drives any
  /// randomness in the synthetic records. The runner passes num_domain = 0
  /// on a hinted run (a cached sensitivity needs no neighbour outputs):
  /// the implementation then draws and maps no domain records at all and
  /// returns an empty `domain_mapped`.
  std::function<MappedBatches(std::span<const size_t> sample_indices,
                              size_t num_partitions, size_t num_domain,
                              uint64_t seed)>
      execute_phases;

  /// Record-independent post-processing of the reduced value (DP-safe by
  /// the post-processing theorem). Defaults to identity.
  std::function<Vec(const Vec&)> post;

  /// The released scalar, the quantity whose sensitivity UPA infers.
  /// Defaults to ScalarOf (first coordinate).
  std::function<double(const Vec&)> scalarize;

  /// Apply scalarize with the default.
  double Scalarize(const Vec& v) const {
    return scalarize ? scalarize(v) : ScalarOf(v);
  }
  /// f(reduced) = scalarize(post(reduced)): the query's released output
  /// for a given reduced value. Without a post step, `reduced` itself is
  /// scalarized (no copy).
  double OutputOf(const Vec& reduced) const {
    return post ? Scalarize(post(reduced)) : Scalarize(reduced);
  }
};

}  // namespace upa::core
