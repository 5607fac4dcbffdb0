// Single-pass fused execution of Aggregate(Filter*(Scan)) chains.
//
// The interpreted columnar path (columnar.cpp) pays, per plan node, a full
// batch pass plus a Reindex gather that materializes the surviving row-index
// vectors between nodes. For the dominant filter→aggregate chains over one
// table — every UPA release of a single-table query runs one or two of
// them — this layer removes all of that: a kernel "compiler" walks the chain
// once, specializes the hot conjuncts (column type × comparison op, dense
// and indirected, via templates resolved through function pointers) and the
// aggregate accumulation (aggregate kind × weight form), and emits one loop
// that reads each batch's columns exactly once, evaluates the conjunct
// chain with short-circuit selection, and accumulates survivors directly
// into ExactSum — no iota vectors, no per-node selection storage, no
// intermediate relation.
//
// This is the no-LLVM analogue of an expression JIT (hdk's CodeGenerator /
// TargetExprBuilder): specialization happens at template-instantiation
// time, dispatch once per query, and the inner loops are branch-free
// cursor-advance selections over contiguous arrays, so they autovectorize.
//
// Correctness contract — bit-identity with the interpreted path and the
// row oracle, including abort behaviour:
//   * conjuncts evaluate in filter order (innermost first), each on the
//     survivors of the previous one — exactly FilterKernel's AND
//     short-circuit, so guarded aborts (division by zero, mixed
//     string/numeric ordered compares) fire iff they fire interpreted;
//   * conjuncts that don't match a fast shape fall back to the *same*
//     FilterKernel / ProjectKernel the interpreted path runs;
//   * every accumulation goes through ExactSum with the interpreted
//     path's exact per-row expressions (min/max NaN handling included),
//     into the interpreted path's per-batch accumulator, and the two
//     paths share one finish (FinishAggregate: cancel check, one pass,
//     Avg/Min/Max, plain total).
// The SQL fuzzer (tests/relational_sql_fuzz_test.cpp) and the fused
// differential suite assert all of this across thread counts.
#pragma once

#include <optional>
#include <vector>

#include "common/status.h"
#include "engine/context.h"
#include "relational/columnar.h"
#include "relational/executor.h"
#include "relational/plan.h"

namespace upa::rel {

/// The plan shape the fused engine accepts: an Aggregate over a chain of
/// zero or more Filters over exactly one Scan.
struct FusedShape {
  /// One entry per Filter node, innermost (closest to the scan) first —
  /// the interpreted engine's evaluation order. Each entry may itself be
  /// an AND/OR tree; FilterKernel's short-circuit applies within it.
  std::vector<ExprPtr> conjuncts;
  /// The scanned table's name.
  std::string table;
};

/// Matches `plan` against the fusible shape. Returns nullopt for joins,
/// nested aggregates, or non-aggregate roots. ExecuteColumnar fuses every
/// plan this matches.
std::optional<FusedShape> FusableShape(const PlanPtr& plan);

/// Executes a fusible plan in a single pass. Expects `shape` from
/// FusableShape(plan) and an Aggregate root; returns the same statuses and
/// bit-identical results (outputs, and for the one provenance pass
/// partition_outputs and sample_contributions, result_rows) as the
/// interpreted columnar path. Only the per-batch loop is its own: the batch
/// grid, accumulator and finish are the interpreted path's
/// (relational/columnar.h).
Result<ExecResult> ExecuteFused(engine::ExecContext* ctx,
                                const Catalog* catalog, const PlanPtr& plan,
                                const FusedShape& shape,
                                const ExecOptions& options);

}  // namespace upa::rel
