// Columnar storage + vectorized relational execution.
//
// The row interpreter (executor.cpp) pays a heap-backed std::variant per
// cell, a std::function call per row, and whole-row copies per operator.
// This layer is the batch-at-a-time cure (cf. HDK/DuckDB-style executors):
//
//   * ColumnarTable — one typed contiguous vector per column (int64_t,
//     double, or dictionary-encoded strings with an *order-preserving*
//     dictionary, so code comparisons implement string comparisons). Built
//     once per Table and cached (Table::Columnar()).
//   * Late materialization — a relation in flight is a set of source
//     ColumnarTables plus one row-index vector per source; filters and
//     joins only re-index, they never copy cell data. The private table's
//     include/exclude/replace options are plain index vectors, and
//     provenance *is* the private source's row-index column.
//   * Batch kernels (kernels.h) — predicates evaluate into selection
//     vectors, numeric projections into contiguous double buffers; no
//     per-row std::function dispatch, no variant access in inner loops.
//   * Deterministic parallelism — operators run per fixed-size batch on
//     the engine ThreadPool (chunk boundaries depend only on row count),
//     and every aggregate goes through ExactSum (common/exact_sum.h), so
//     results are bit-identical to the row oracle for any pool size. The
//     differential harness (tests/relational_columnar_test.cpp) asserts
//     exactly that.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/exact_sum.h"
#include "common/status.h"
#include "engine/context.h"
#include "relational/executor.h"
#include "relational/plan.h"
#include "relational/schema.h"
#include "relational/table.h"

namespace upa::rel {

struct CompiledExpr;  // kernels.h (which includes this header)

/// Selection / row-index vector: positions are uint32 (tables are checked
/// to fit; 4B rows ought to be enough for one in-memory partition).
using SelVector = std::vector<uint32_t>;

/// Rows per columnar fragment. Initialized once from UPA_FRAGMENT_ROWS
/// (default 65536); SetDefaultFragmentRows overrides it (tests and benches
/// sweep fragment sizes — results are bit-identical across all of them,
/// only skipping effectiveness and scheduling granularity change).
size_t DefaultFragmentRows();
void SetDefaultFragmentRows(size_t rows);  // 0 → re-read the environment

/// Per-fragment, per-column zone map entry. `numeric` bounds are over the
/// kernel's value domain (int cells compared as double, exactly like
/// NumCmpFilter's casts), `code` bounds over dictionary codes (the
/// dictionary is order-preserving, so code order == string order). A
/// column whose cells defeat interval reasoning (NaN) publishes no bounds.
struct FragmentColStats {
  bool numeric_valid = false;
  double min = 0.0;
  double max = 0.0;
  bool codes_valid = false;
  uint32_t min_code = 0;
  uint32_t max_code = 0;
};

/// One fragment of a ColumnarTable: a contiguous row range plus the zone
/// maps filters consult to skip it. Fragments are views — the column
/// payloads stay physically contiguous, so late-materialized row ids keep
/// O(1) access.
struct FragmentInfo {
  uint32_t begin_row = 0;
  uint32_t end_row = 0;
  std::vector<FragmentColStats> cols;

  uint32_t num_rows() const { return end_row - begin_row; }
};

/// One typed column. Exactly one payload vector is populated, chosen by
/// the *actual* cell types (not the declared schema type): all-int64 cells
/// make an int column even under a double-declared schema, so join keys
/// behave exactly like the row oracle's strict AsInt accessor.
struct Column {
  ValueType type = ValueType::kInt;
  std::vector<int64_t> ints;       // type == kInt
  std::vector<double> doubles;     // type == kDouble
  std::vector<uint32_t> codes;     // type == kString: index into *dict
  /// Sorted (order-preserving) dictionary: code order == string order.
  std::shared_ptr<const std::vector<std::string>> dict;
};

class ColumnarTable {
 public:
  /// Builds the columnar form of `rows` against `schema`, partitioned into
  /// fragments of `fragment_rows` rows (0 → DefaultFragmentRows()). Aborts
  /// on columns mixing string and numeric cells (the row store tolerates
  /// them lazily; columnar storage is typed per column).
  static std::shared_ptr<const ColumnarTable> Build(
      Schema schema, const std::vector<Row>& rows, size_t fragment_rows = 0);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  const Column& column(size_t i) const { return columns_[i]; }

  /// Fragment directory: ceil(num_rows / fragment_rows) contiguous row
  /// ranges with zone maps (empty for an empty table).
  const std::vector<FragmentInfo>& fragments() const { return fragments_; }
  size_t fragment_rows() const { return fragment_rows_; }

  /// Shared identity row-index vector [0, num_rows) — the row_ids of a
  /// full scan, shared across every scan of this table.
  const std::shared_ptr<const SelVector>& identity() const {
    return identity_;
  }

 private:
  ColumnarTable() = default;

  Schema schema_;
  size_t num_rows_ = 0;
  size_t fragment_rows_ = 0;
  std::vector<Column> columns_;
  std::vector<FragmentInfo> fragments_;
  std::shared_ptr<const SelVector> identity_;
};

/// Zone-map test: true when some row of `table`'s fragment `frag` *might*
/// satisfy `pred` as a filter predicate; false only when provably no row
/// can (so skipping the fragment is output-equivalent to scanning it —
/// including abort behaviour: predicates whose evaluation can abort, e.g.
/// mixed string/numeric ordered comparisons, are never the basis of a
/// skip). `pred` must be compiled against the table's own schema with
/// schema position == physical column position (a bare scan).
bool FragmentCanMatch(const CompiledExpr& pred, const ColumnarTable& table,
                      size_t frag);

/// A scan bound for execution: the columnar form of a catalog table plus
/// the row-index vector the relation starts from (the shared identity, or
/// the private table's include/exclude/replace index surgery). Shared by
/// the interpreted evaluator and the fused engine (relational/fused.h) so
/// both paths read byte-identical inputs through identical cache keys.
struct ScanBinding {
  std::shared_ptr<const ColumnarTable> table;
  std::shared_ptr<const SelVector> row_ids;
  /// True when `row_ids` is provenance: entry p is the private base-row
  /// index relation row p descends from.
  bool is_private = false;
};

/// Resolves `table_name` against the catalog and applies the private-table
/// options exactly like the columnar scan operator (including the block
/// cache for non-private scans when options.cache is set).
/// `engine_partitions` must be the resolved parallelism (it is part of the
/// scan cache key); pass 0 to use the context default.
/// A sampled private row's weight, collected per kernel batch during the
/// one provenance pass and folded into its slot in batch order.
struct SampleHit {
  uint32_t row = 0;
  double weight = 0.0;
};

/// Routing state of the one provenance pass (ExecOptions::sample_rows),
/// shared by all three engines: a membership bitmap over the sampled
/// private rows, one exact slot sum per sampled record, and the sampled
/// rows' exact sum per enforcer partition. Contains() is read-only and safe
/// from kernel threads; Add() runs on the folding thread.
class SamplePass {
 public:
  /// `rows` must be sorted and distinct (ValidateSampleRows); `partitions`
  /// is the enforcer partition count (> 0).
  SamplePass(const std::vector<size_t>& rows, size_t partitions);

  bool Contains(size_t row) const {
    return row < limit_ && ((bits_[row >> 6] >> (row & 63)) & 1) != 0;
  }
  /// Adds `weight` to the slot of sampled row `row`.
  void Add(size_t row, double weight);
  void Fold(const std::vector<SampleHit>& hits) {
    for (const SampleHit& h : hits) Add(h.row, h.weight);
  }
  /// The rounded slots, aligned with the sample rows.
  std::vector<double> RoundSlots() const;
  /// The pass's result from the per-partition sums of the unsampled rows:
  /// partition_outputs, sample_contributions, partition_totals (both kinds
  /// of row) and `output` as their exact total (no per-row total is kept).
  ExecResult Finish(const std::vector<ExactSum>& partition_sums,
                    size_t result_rows) const;

 private:
  const std::vector<size_t>& rows_;
  size_t limit_ = 0;
  std::vector<uint64_t> bits_;
  std::vector<ExactSum> slots_;
  std::vector<ExactSum> sampled_parts_;
};

Result<ScanBinding> BindScanSource(engine::ExecContext* ctx,
                                   const Catalog* catalog,
                                   const std::string& table_name,
                                   const ExecOptions& options,
                                   size_t engine_partitions);

/// Executes an Aggregate-rooted plan on the columnar engine. Root/option
/// validation is PlanExecutor::Execute's job; this expects a well-formed
/// root and returns the same statuses as the row oracle for unknown
/// tables/columns/join keys. Results are bit-identical to the row path.
/// Plans of the fusible shape (FusableShape: Aggregate(Filter*(Scan))) run
/// on the single-pass fused kernels (relational/fused.h); all others run
/// interpreted.
Result<ExecResult> ExecuteColumnar(engine::ExecContext* ctx,
                                   const Catalog* catalog,
                                   const PlanPtr& plan,
                                   const ExecOptions& options);

/// The interpreted columnar path: one batch pass per plan node. Joins reach
/// it through ExecuteColumnar; differential tests and benches call it
/// directly to get the unfused baseline of a fusible plan.
Result<ExecResult> ExecuteColumnarInterpreted(engine::ExecContext* ctx,
                                              const Catalog* catalog,
                                              const PlanPtr& plan,
                                              const ExecOptions& options);

}  // namespace upa::rel
