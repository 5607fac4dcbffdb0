// FLEX baseline (Johnson, Near, Song — VLDB'18), as the paper describes
// and compares against (§II-B):
//
//   * supports only counting queries built from Select/Join/Filter/Count;
//     arithmetic (SUM/AVG) and ML queries are rejected;
//   * infers the local sensitivity of a count-with-joins statically, from
//     dataset metadata only: for each join it multiplies the frequency of
//     the most frequently-occurring item of each of the two join columns,
//     and multiplies across joins;
//   * ignores filters and actual join-key co-occurrence — the two sources
//     of overestimation the paper's Figure 2(a) quantifies.
#pragma once

#include <string>
#include <vector>

#include "relational/plan.h"
#include "relational/table.h"

namespace upa::flex {

struct JoinFactor {
  std::string left_table, left_column;
  std::string right_table, right_column;
  size_t left_max_frequency = 0;
  size_t right_max_frequency = 0;
  /// The factor this join contributes to the sensitivity product.
  double factor() const {
    return static_cast<double>(left_max_frequency) *
           static_cast<double>(right_max_frequency);
  }
};

struct FlexResult {
  bool supported = false;
  std::string unsupported_reason;
  /// Statically inferred local sensitivity (when supported).
  double local_sensitivity = 0.0;
  /// Per-join breakdown of the product.
  std::vector<JoinFactor> joins;
};

/// Statically analyze `plan` against the catalog's column metadata.
FlexResult AnalyzeFlex(const rel::PlanPtr& plan, const rel::Catalog& catalog);

}  // namespace upa::flex
