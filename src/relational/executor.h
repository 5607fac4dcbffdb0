// PlanExecutor: runs a logical plan on the engine, optionally tracking the
// provenance of a designated *private table* so that per-record influence
// falls out of the run.
//
// Provenance mirrors UPA's joinDP index tracking (§V-C): every row of the
// private table carries its index through filters and joins; at the
// aggregate, each result row's weight is attributed to the private record
// it descends from. Because the evaluated plans are inner-join SPJ trees
// with additive aggregates (Count/Sum), removing private record r changes
// the output by exactly -contribution[r]. Every engine tracks provenance
// one way only, the one provenance pass (ExecOptions::sample_rows): a
// single scan of the private table that routes each surviving row's
// weight to its sampled record's slot or to its enforcer partition's sum.
// UPA's release pass, its domain pass and the exhaustive ground truth (all
// rows sampled) are each one such pass.
//
// The executor keeps one piece of state across calls, the cross-release S′
// memo: a one pass it has run before scans only its sampled rows and
// derives the partition outputs from the remembered exact partition sums
// (PlanExecutor::Execute).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/exact_sum.h"
#include "common/status.h"
#include "engine/cache.h"
#include "engine/context.h"
#include "relational/plan.h"
#include "relational/table.h"

namespace upa::rel {

/// Which physical engine evaluates the plan.
///   kColumnar — vectorized batch kernels over columnar storage with late
///     materialization (relational/columnar.h). The default: this is the
///     hot path every UPA release's passes ride on.
///   kRowOracle — the original row-at-a-time interpreter, kept as the
///     correctness oracle. Both engines aggregate through exact
///     (correctly-rounded) summation, so they agree bit-for-bit on every
///     output — asserted by tests/relational_columnar_test.cpp.
enum class ExecEngine { kRowOracle, kColumnar };

struct ExecOptions {
  /// Physical engine. Results are bit-identical either way; the columnar
  /// engine is simply much faster.
  ExecEngine engine = ExecEngine::kColumnar;
  /// Table whose rows are the privacy unit. Empty → no provenance.
  /// The table must be scanned at most once in the plan.
  std::string private_table;
  /// If set: run with the private table restricted to exactly these row
  /// indices (sorted, distinct, within the base rows — the replacement rows
  /// when replace_private_rows is also set). A run without some rows is an
  /// include of their complement.
  const std::vector<size_t>* include_rows = nullptr;
  /// If set: replace the private table's rows entirely (synthetic "record
  /// added" neighbours, drawn straight into columns; churned datasets,
  /// built into columns once). Its columns must be the private table's.
  /// Provenance = row position in this table; the row oracle reads its rows
  /// back out of the columns (ColumnarTable::RowAt). include_rows and
  /// sample_rows compose on top.
  const ColumnarTable* replace_private_rows = nullptr;
  /// If set: the one provenance pass. Sorted, distinct private-row indices
  /// (the UPA sample S). The whole private table is scanned once (only S on
  /// an S′ memo hit, see PlanExecutor::Execute); a surviving row descending
  /// from a sampled record adds its weight to that record's slot of
  /// ExecResult::sample_contributions, every other row to its partition of
  /// partition_outputs. Requires an additive aggregate and partitions > 0;
  /// cannot be combined with include_rows.
  const std::vector<size_t>* sample_rows = nullptr;
  /// If set: cache non-private scans and fully-public plan subtrees here
  /// (keyed by table/plan identity + parallelism). The caller owns the
  /// cache and scopes it: MakePlanQuery shares one across the passes of a
  /// single release, so they reuse the public side — the effect behind the
  /// paper's Fig 4(b) — and drops it with the release. Null: no caching.
  engine::BlockCache* cache = nullptr;
  /// One provenance pass only (required there): the enforcer partition
  /// count; private record i belongs to partition i % partitions.
  size_t partitions = 0;
};

struct ExecResult {
  /// The scalar aggregate (Count or Sum at the plan root).
  double output = 0.0;
  /// One provenance pass only: per-partition outputs over the unsampled
  /// rows.
  std::vector<double> partition_outputs;
  /// One provenance pass only: the additive influence of each sampled
  /// record, aligned with options.sample_rows (0 for records that never
  /// reached the aggregate). `output` is the exact total over all rows.
  std::vector<double> sample_contributions;
  /// One provenance pass only: the exact sum x_j of every surviving row's
  /// weight in partition j, sampled or not. `output` is their rounded
  /// total; the S′ memo keeps them.
  std::vector<ExactSum> partition_totals;
  /// Rows that reached the aggregate.
  size_t result_rows = 0;
};

class SPrimeMemo;  // executor.cpp

class PlanExecutor {
 public:
  /// Plans the S′ memo remembers; the least recently used goes first.
  static constexpr size_t kMemoCapacity = 64;

  PlanExecutor(engine::ExecContext* ctx, const Catalog* catalog);

  /// Executes a plan whose root is an Aggregate. Fails with
  /// INVALID_ARGUMENT / NOT_FOUND / UNSUPPORTED on malformed plans or
  /// options (include_rows or sample_rows unsorted, duplicated or out of
  /// range; partitions without sample_rows), and with the token's status
  /// when the caller's CancelToken trips before the pass finishes: no
  /// engine reports a partial fold.
  ///
  /// A columnar one provenance pass over the catalog's private table goes
  /// through the S′ memo, keyed by the plan's structure, the uid of every
  /// table it scans, the private table and the partition count. A miss runs
  /// the full pass and remembers its partition_totals. A hit scans only the
  /// sampled rows and derives partition_outputs[j] = Round(x_j ⊖ sampled
  /// rows of j) by exact subtraction, bit-identical to the full pass. The
  /// row oracle, replace_private_rows and samples of more than half the
  /// private table never touch the memo, and only a pass that finished
  /// fills it.
  Result<ExecResult> Execute(const PlanPtr& plan,
                             const ExecOptions& options = {}) const;

  /// Entries in the S′ memo (at most kMemoCapacity).
  size_t MemoEntries() const;

  /// The tables plans run against.
  const Catalog& catalog() const { return *catalog_; }

 private:
  Result<ExecResult> ExecuteOnePass(const PlanPtr& plan,
                                    const ExecOptions& options) const;

  engine::ExecContext* ctx_;
  const Catalog* catalog_;
  std::shared_ptr<SPrimeMemo> memo_;
};

}  // namespace upa::rel
