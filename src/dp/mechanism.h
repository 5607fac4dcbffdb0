// Differential-privacy output mechanisms.
//
// UPA releases `Output + Lap(localSen / ε)` after clamping the output into
// the inferred range Ô_f (Algorithm 1 output line; Algorithm 2 lines 17–18):
// core::UpaRunner clamps, then calls LaplaceMechanism.
// Vector-valued queries (LR weights, KMeans centroids) are perturbed
// per-coordinate with the same scale, matching the Laplace mechanism with
// the inferred sensitivity budgeted per released coordinate.
#pragma once

#include <vector>

#include "common/rng.h"

namespace upa::dp {

/// The Laplace mechanism for a scalar output.
/// noise scale b = sensitivity / epsilon; epsilon > 0, sensitivity >= 0.
double LaplaceMechanism(double value, double sensitivity, double epsilon,
                        Rng& rng);

/// Per-coordinate Laplace mechanism for a vector output.
std::vector<double> LaplaceMechanism(const std::vector<double>& values,
                                     double sensitivity, double epsilon,
                                     Rng& rng);

}  // namespace upa::dp
