#include "groundtruth/ground_truth.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "relational/columnar.h"

namespace upa::gt {

void GroundTruth::FinalizeFrom(double fx) {
  if (neighbour_outputs.empty()) {
    min_output = max_output = fx;
    local_sensitivity = 0.0;
    return;
  }
  min_output = *std::min_element(neighbour_outputs.begin(),
                                 neighbour_outputs.end());
  max_output = *std::max_element(neighbour_outputs.begin(),
                                 neighbour_outputs.end());
  local_sensitivity = 0.0;
  for (double y : neighbour_outputs) {
    local_sensitivity = std::max(local_sensitivity, std::fabs(fx - y));
  }
}

Result<GroundTruth> ExactPlanGroundTruth(
    const rel::PlanExecutor& executor, const rel::PlanPtr& plan,
    const std::string& private_table, size_t num_records,
    const std::function<rel::Row(Rng&)>& sample_domain_row,
    size_t n_additions, uint64_t seed,
    const rel::ColumnarTable* replace_private_rows) {
  if (replace_private_rows != nullptr) {
    UPA_CHECK_MSG(num_records == replace_private_rows->num_rows(),
                  "num_records must match the replacement row count");
  }
  // One provenance pass with every record sampled gives f(x) and every
  // record's additive influence (0 for records that never reach the
  // aggregate).
  auto influences = [&](const rel::ColumnarTable* rows, size_t n)
      -> Result<rel::ExecResult> {
    std::vector<size_t> all(n);
    std::iota(all.begin(), all.end(), size_t{0});
    rel::ExecOptions options;
    options.private_table = private_table;
    options.replace_private_rows = rows;
    options.sample_rows = &all;
    options.partitions = 1;
    return executor.Execute(plan, options);
  };
  Result<rel::ExecResult> full = influences(replace_private_rows, num_records);
  if (!full.ok()) return full.status();

  GroundTruth gt;
  gt.output = full.value().output;
  // Removal neighbours: f(x - r) = f(x) - influence(r).
  gt.neighbour_outputs.reserve(num_records + n_additions);
  for (double influence : full.value().sample_contributions) {
    gt.neighbour_outputs.push_back(gt.output - influence);
  }

  // Addition neighbours: run the plan once with the private table replaced
  // by the synthetic rows; each row's influence is its influence when
  // added to x (the other tables are unchanged and joins are additive).
  if (n_additions > 0) {
    Rng rng = Rng::ForStream(seed, "gt/additions/" + private_table);
    std::vector<rel::Row> synthetic;
    synthetic.reserve(n_additions);
    for (size_t i = 0; i < n_additions; ++i) {
      synthetic.push_back(sample_domain_row(rng));
    }
    // The pass over x above found the private table in the catalog.
    const rel::Schema& schema = executor.catalog().at(private_table)->schema();
    Result<rel::ExecResult> added = influences(
        rel::ColumnarTable::Build(schema, synthetic).get(), n_additions);
    if (!added.ok()) return added.status();
    for (double influence : added.value().sample_contributions) {
      gt.neighbour_outputs.push_back(gt.output + influence);
    }
  }
  gt.FinalizeFrom(gt.output);
  return gt;
}

GroundTruth NaiveGroundTruth(
    size_t num_records,
    const std::function<double(std::optional<size_t> excluded)>& run,
    size_t n_additions, const std::function<double(Rng&)>& run_with_addition,
    uint64_t seed) {
  GroundTruth gt;
  gt.output = run(std::nullopt);
  gt.neighbour_outputs.reserve(num_records + n_additions);
  for (size_t i = 0; i < num_records; ++i) {
    gt.neighbour_outputs.push_back(run(i));
  }
  if (n_additions > 0 && run_with_addition) {
    Rng rng = Rng::ForStream(seed, "gt/naive-additions");
    for (size_t i = 0; i < n_additions; ++i) {
      gt.neighbour_outputs.push_back(run_with_addition(rng));
    }
  }
  gt.FinalizeFrom(gt.output);
  return gt;
}

}  // namespace upa::gt
