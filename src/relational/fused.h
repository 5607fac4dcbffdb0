// Single-pass fused execution of Aggregate(Filter*(Scan)) chains and of
// aggregates over one equi-join of two such chains.
//
// The interpreted columnar path (columnar.cpp) pays, per plan node, a full
// batch pass plus a Reindex gather that materializes the surviving row-index
// vectors between nodes; a join adds key columns, pair vectors and a gather
// of every source's row ids. For the plans every UPA release of a
// single-table or a one-join query runs, this layer removes all of that: a
// kernel "compiler" walks each chain once, specializes the hot conjuncts
// (column type × comparison op, dense and indirected, via templates
// resolved through function pointers) and the aggregate accumulation
// (aggregate kind × weight form), and emits one loop that reads each
// batch's columns exactly once, evaluates the conjunct chain with
// short-circuit selection, and accumulates survivors directly into
// ExactSum — no iota vectors, no per-node selection storage, no
// intermediate relation.
//
// A join runs as a build and one probe scan. The build side (the public
// side, else the optimizer's hint, else the side with fewer base rows)
// runs its chain into a JoinTable (columnar.h), cached in the release's
// block cache so later passes probe the same build. The probe side's
// morsels then run its chain, look each survivor's key up and fold one
// weight per match: a Count counts matches, and a Sum or Avg weight is
// projected over the batch's matched pairs.
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
//     both sides of a join run their chains over all of their rows, even
//     when the other side is empty, and a weight is evaluated only on
//     matched pairs;
//   * conjuncts that don't match a fast shape fall back to the *same*
//     FilterKernel / ProjectKernel the interpreted path runs;
//   * every accumulation goes through ExactSum with the interpreted
//     path's exact per-row expressions (min/max NaN handling included),
//     into the interpreted path's per-batch accumulator, and the two
//     paths share one finish (FinishAggregate: cancel check, one pass,
//     Avg/Min/Max, plain total);
//   * what the fused path cannot resolve (an unknown table, column or
//     join key, a non-integer key column) runs interpreted, which reports
//     it.
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

/// One Filter*(Scan) chain of a fusible plan.
struct FusedChain {
  /// One entry per Filter node, innermost (closest to the scan) first —
  /// the interpreted engine's evaluation order. Each entry may itself be
  /// an AND/OR tree; FilterKernel's short-circuit applies within it.
  std::vector<ExprPtr> conjuncts;
  /// The scanned table's name.
  std::string table;
};

/// The plan shapes the fused engine accepts: an Aggregate over one chain,
/// or a Count, Sum or Avg over one Join of two chains on distinct tables.
struct FusedShape {
  /// The aggregate's chain, or the join's left one.
  FusedChain left;
  /// The join's right chain (unused without a join).
  FusedChain right;
  /// The Join node (its keys and build-side hint), or null.
  PlanPtr join;
};

/// Matches `plan` against the fusible shapes. Returns nullopt for plans
/// with more than one join, a self-join, a filter above a join, Min or Max
/// over a join (a zero result's sign follows the interpreted path's pair
/// order), nested aggregates, or non-aggregate roots. ExecuteColumnar
/// fuses every plan this matches.
std::optional<FusedShape> FusableShape(const PlanPtr& plan);

/// Executes a fusible plan in a single pass over its (probe) chain. Expects
/// `shape` from FusableShape(plan) and an Aggregate root; returns the same
/// statuses and bit-identical results (outputs, and for the one provenance
/// pass partition_outputs and sample_contributions, result_rows) as the
/// interpreted columnar path. Only the per-batch loops are its own: the
/// batch grid, accumulator and finish are the interpreted path's
/// (relational/columnar.h).
Result<ExecResult> ExecuteFused(engine::ExecContext* ctx,
                                const Catalog* catalog, const PlanPtr& plan,
                                const FusedShape& shape,
                                const ExecOptions& options);

}  // namespace upa::rel
