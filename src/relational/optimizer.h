// Logical-plan optimizer: predicate pushdown plus cost-based rewrites.
//
// The SQL front-end places the whole WHERE clause above the joins;
// PushDownFilters splits it into conjuncts and sinks each one to the
// lowest node whose schema covers its columns (per-table conjuncts reach
// their scans, cross-table conjuncts stay above the join that first joins
// their tables; conjuncts over a column both join sides provide stay above
// that join — bare-name resolution must never pick a side). Aggregates are
// opaque barriers: conjuncts never cross one, but the subtree beneath it
// is optimized with a fresh batch.
//
// Optimize() layers the cost-based rewrites on top (Selinger-style split:
// relational/card_est.h estimates cardinalities, relational/cost_model.h
// prices plans):
//   * greedy join reordering over the join graph — cheapest edge first,
//     then repeatedly attach the relation minimizing the estimated join
//     output; the reordered tree is kept only when the cost model agrees
//     it is cheaper,
//   * per-filter conjunct ordering by ascending estimated selectivity,
//   * hash-build side hints (PlanNode::build_side) where the estimated
//     cardinalities differ decisively.
// Every rewrite preserves semantics exactly: inner-join SPJ trees with
// exact (order-independent) aggregates make reordering a theorem, asserted
// bit-for-bit by the optimizer differential suite against both engines.
#pragma once

#include "relational/plan.h"

namespace upa::rel {

struct OptimizerOptions {
  /// When set, joins with this table on either side keep BuildSide::kAuto:
  /// UPA's passes resize the private side at runtime (the domain pass
  /// swaps in n synthetic rows), so static estimates would mispredict the
  /// build side.
  std::string private_table;
};

/// Returns a semantically identical plan: filters pushed down, join trees
/// reordered where the cost model finds a cheaper shape, conjuncts ordered
/// most-selective-first, hash-build sides hinted. The catalog resolves
/// which scan provides which column and supplies the statistics.
PlanPtr Optimize(const PlanPtr& plan, const Catalog& catalog,
                 const OptimizerOptions& options = {});

/// Returns an equivalent plan with filter conjuncts pushed as deep as
/// their column references allow. The catalog resolves which scan provides
/// which column. Plans without filters are returned unchanged.
PlanPtr PushDownFilters(const PlanPtr& plan, const Catalog& catalog);

/// The inverse rewrite, for benchmarks and differential tests: every
/// filter below an aggregate is lifted to a single conjoined predicate
/// directly under that aggregate (the shape the SQL front-end emits).
/// Semantically identical for the inner-join plans the engine runs.
PlanPtr LiftFilters(const PlanPtr& plan);

}  // namespace upa::rel
