// Linear Regression as a UPA query (the paper's running example, §III).
//
// One full-batch gradient step: the Mapper computes each record's gradient
// contribution, the Reducer sums them, and the (record-independent) post
// step applies the update w' = w - lr · ∇/N. The released scalar is the L2
// norm of the updated weight vector — the model summary whose sensitivity
// UPA infers.
#pragma once

#include <memory>
#include <vector>

#include "mlkit/datagen.h"
#include "upa/simple_query.h"

namespace upa::ml {

struct LinRegSpec {
  /// Initial weights (dims entries) and bias. Fixed inputs to the query —
  /// typically the state after previous (public or budgeted) iterations.
  std::vector<double> w0;
  double b0 = 0.0;
  double learning_rate = 0.01;
};

/// Reduced-value layout: [grad_w(0..d-1), grad_b, count].
core::Vec LinRegMap(const LinRegSpec& spec, const MlPoint& p);

/// post: reduced gradient sums -> updated [w(0..d-1), b].
core::Vec LinRegPost(const LinRegSpec& spec, const core::Vec& reduced);

/// The simple-query spec (exposed so the ground-truth harness and churned
/// instances can reuse the exact same mapper/post/scalarize closures).
/// `records_override` substitutes the record set (e.g. a churned copy)
/// while keeping the dataset's distribution as the domain sampler.
core::SimpleQuerySpec<MlPoint> MakeLinRegSpec(
    engine::ExecContext* ctx, const MlDataset& data, LinRegSpec spec,
    std::shared_ptr<const std::vector<MlPoint>> records_override = nullptr);

/// Reference (non-private) execution: one gradient step over all points.
/// Used by tests and the ground-truth harness.
std::vector<double> LinRegStep(const LinRegSpec& spec,
                               const std::vector<MlPoint>& points);

}  // namespace upa::ml
