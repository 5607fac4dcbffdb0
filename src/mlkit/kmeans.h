// KMeans as a UPA query.
//
// The released query is one Lloyd refinement from fixed prior centroids
// (DESIGN.md substitutions): the Mapper assigns each point to its nearest
// centroid and emits per-cluster partial sums + counts, the Reducer adds
// them, and post recomputes the centroids. The released scalar is the L2
// norm of the flattened updated centroids.
//
// Multi-iteration (non-private) Lloyd iterations are also provided for the
// examples and as the seeding procedure for the private refinement step.
#pragma once

#include <vector>

#include "mlkit/datagen.h"
#include "upa/simple_query.h"

namespace upa::ml {

using Centroids = std::vector<std::vector<double>>;

struct KMeansSpec {
  /// Fixed prior centroids (k × dims); the query refines these.
  Centroids centroids;
};

/// Index of the centroid nearest to x (ties → lowest index).
size_t NearestCentroid(const Centroids& centroids,
                       const std::vector<double>& x);

/// Reduced-value layout: [sum(c0,d0..d-1), ..., sum(ck-1,*), count(c0..ck-1)].
core::Vec KMeansMap(const KMeansSpec& spec, const MlPoint& p);

/// post: partial sums -> flattened updated centroids (k*d entries). A
/// cluster with zero assigned points keeps its prior centroid.
core::Vec KMeansPost(const KMeansSpec& spec, const core::Vec& reduced);

/// See MakeLinRegSpec for the spec/override rationale.
core::SimpleQuerySpec<MlPoint> MakeKMeansSpec(
    engine::ExecContext* ctx, const MlDataset& data, KMeansSpec spec,
    std::shared_ptr<const std::vector<MlPoint>> records_override = nullptr);

/// Reference (non-private) Lloyd iterations from `init`, returning the
/// final centroids. Used for seeding and in the examples.
Centroids LloydIterations(const std::vector<MlPoint>& points, Centroids init,
                          size_t iterations);

/// Deterministic initial centroids: the first k distinct points.
Centroids InitCentroids(const std::vector<MlPoint>& points, size_t k);

}  // namespace upa::ml
