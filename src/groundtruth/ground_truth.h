// Ground-truth local sensitivity — the paper's brute-force baseline.
//
// Two implementations (DESIGN.md §2):
//   * Naive: literally re-run the query once per neighbouring dataset
//     (|x| removals + sampled additions). The oracle the exact method is
//     validated against; only viable at small |x|.
//   * Exact-incremental: compute every record's additive influence in one
//     pass (monoid subtraction for map/reduce queries, join-index
//     provenance for plans) and derive all |x| removal outputs exactly.
//     Equal to the naive result for the additive query class this repo
//     evaluates — asserted by tests — but O(|x|) instead of O(|x|²).
//
// The "record added" side of the neighbourhood is a domain of unbounded
// size, so additions are sampled (n_additions synthetic records), exactly
// as UPA itself samples them.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "relational/executor.h"
#include "upa/simple_query.h"

namespace upa::gt {

struct GroundTruth {
  /// f(x).
  double output = 0.0;
  /// f(y) for every removal neighbour (|x| values), then for each sampled
  /// addition neighbour (n_additions values).
  std::vector<double> neighbour_outputs;
  /// max |f(x) - f(y)| over all collected neighbours — the local
  /// sensitivity (Definition II.1, additions sampled).
  double local_sensitivity = 0.0;
  /// Extremes over neighbour outputs (the blue lines of Figure 3).
  double min_output = 0.0;
  double max_output = 0.0;

  void FinalizeFrom(double fx);
};

/// Exact-incremental ground truth for a plan query. `num_records` is the
/// size of the private table (or of `replace_private_rows` when given).
/// The addition neighbours are rows of `sample_domain_row`, built into
/// columns against the private table's schema.
Result<GroundTruth> ExactPlanGroundTruth(
    const rel::PlanExecutor& executor, const rel::PlanPtr& plan,
    const std::string& private_table, size_t num_records,
    const std::function<rel::Row(Rng&)>& sample_domain_row,
    size_t n_additions, uint64_t seed,
    const rel::ColumnarTable* replace_private_rows = nullptr);

/// Naive ground truth from a rerun closure: run(excluded) must return the
/// query output with record `excluded` removed (or the full output for
/// nullopt). Additions are handled by `run_with_addition` if provided.
GroundTruth NaiveGroundTruth(
    size_t num_records,
    const std::function<double(std::optional<size_t> excluded)>& run,
    size_t n_additions = 0,
    const std::function<double(Rng&)>& run_with_addition = {},
    uint64_t seed = 0);

/// Exact-incremental ground truth for a simple (map/reduce) query spec.
template <typename Record>
GroundTruth ExactSimpleGroundTruth(const core::SimpleQuerySpec<Record>& spec,
                                   size_t n_additions, uint64_t seed) {
  const std::vector<Record>& records = *spec.records;
  auto output_of = [&spec](const core::Vec& reduced) {
    core::Vec posted = spec.post ? spec.post(reduced) : reduced;
    return spec.scalarize ? spec.scalarize(posted) : core::ScalarOf(posted);
  };

  // One pass: total reduce + per-record mapped values.
  std::vector<core::Vec> mapped;
  mapped.reserve(records.size());
  core::Vec total = core::VecSum::Identity();
  for (const Record& r : records) {
    mapped.push_back(spec.map_record(r));
    total = core::VecSum::Combine(std::move(total), mapped.back());
  }

  GroundTruth gt;
  gt.output = output_of(total);
  gt.neighbour_outputs.reserve(records.size() + n_additions);
  for (const core::Vec& m : mapped) {
    gt.neighbour_outputs.push_back(output_of(core::VecSum::Subtract(total, m)));
  }
  Rng rng = Rng::ForStream(seed, "gt/additions/" + spec.name);
  for (size_t i = 0; i < n_additions; ++i) {
    core::Vec added = spec.map_record(spec.sample_domain(rng));
    gt.neighbour_outputs.push_back(output_of(core::VecSum::Combine(total, added)));
  }
  gt.FinalizeFrom(gt.output);
  return gt;
}

}  // namespace upa::gt
