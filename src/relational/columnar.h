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
//     include/replace options are plain index vectors, and provenance *is*
//     the private source's row-index column.
//   * Batch kernels (kernels.h) — predicates evaluate into selection
//     vectors, numeric projections into contiguous double buffers; no
//     per-row std::function dispatch, no variant access in inner loops.
//   * Deterministic parallelism — every scan, bare or derived, fused or
//     interpreted, walks one grid of kBatch-row batches, run as morsels on
//     the engine ThreadPool (batch boundaries depend only on the row
//     count), and every aggregate goes through ExactSum
//     (common/exact_sum.h), so results are bit-identical to the row oracle
//     for any pool size. The differential harness
//     (tests/relational_columnar_test.cpp) asserts exactly that.
//   * One fold — the interpreted path and the fused kernels (fused.h)
//     share everything below but their per-batch loops, the join build
//     (JoinTable) included.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/exact_sum.h"
#include "common/hash.h"
#include "common/status.h"
#include "engine/context.h"
#include "relational/executor.h"
#include "relational/plan.h"
#include "relational/schema.h"
#include "relational/table.h"

namespace upa::rel {

/// Selection / row-index vector: positions are uint32 (tables are checked
/// to fit; 4B rows ought to be enough for one in-memory partition).
using SelVector = std::vector<uint32_t>;

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
  class Builder;

  /// Builds the columnar form of `rows` against `schema`: feeds every cell
  /// to a Builder. Aborts on columns mixing string and numeric cells (the
  /// row store tolerates them lazily; columnar storage is typed per column).
  static std::shared_ptr<const ColumnarTable> Build(
      Schema schema, const std::vector<Row>& rows);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  const Column& column(size_t i) const { return columns_[i]; }

  /// Row `i` read back out of the columns, one Value per cell of its
  /// column's type (the row oracle's view of a table that was built
  /// straight into columns). Value-identical to the row the cells came
  /// from whenever every cell of a column had the same type.
  Row RowAt(size_t i) const;

  /// Shared identity row-index vector [0, num_rows) — the row_ids of a
  /// full scan, shared across every scan of this table.
  const std::shared_ptr<const SelVector>& identity() const {
    return identity_;
  }

 private:
  ColumnarTable() = default;

  Schema schema_;
  size_t num_rows_ = 0;
  std::vector<Column> columns_;
  std::shared_ptr<const SelVector> identity_;
};

/// The one way a ColumnarTable is made. Cells arrive row-major, one call
/// per cell in schema order, and land in typed columns; Finish sorts the
/// string dictionaries. Build feeds it rows; a domain draw
/// (tpch::TpchDataset::SampleColumns) feeds it the drawn values directly,
/// so no rel::Row is made for them.
///
/// A column is typed by its cells, not its declared type: int cells make
/// an int column until a double arrives, which turns the column into
/// doubles (earlier int cells cast as AsNumeric does). A column with no
/// cells takes its declared type. String cells are views: what they point
/// at must outlive Finish.
class ColumnarTable::Builder {
 public:
  /// `expected_rows` only sizes the column buffers.
  Builder(Schema schema, size_t expected_rows);

  void Int(int64_t v) { Next().AddInt(v); }
  void Double(double v) { Next().AddDouble(v); }
  void String(std::string_view v) { Next().AddString(v); }
  void Cell(const Value& v);

  /// Aborts unless every row is whole, when a column mixes string and
  /// numeric cells, or past 2^32 - 1 rows.
  std::shared_ptr<const ColumnarTable> Finish() &&;

 private:
  struct Draft {
    bool is_double = false;
    bool has_numeric = false;
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<std::string_view> strings;

    void AddInt(int64_t v);
    void AddDouble(double v);
    void AddString(std::string_view v) { strings.push_back(v); }
  };

  Draft& Next() {
    Draft& d = drafts_[next_];
    if (++next_ == drafts_.size()) next_ = 0;
    ++cells_;
    return d;
  }

  Schema schema_;
  std::vector<Draft> drafts_;
  size_t next_ = 0;
  size_t cells_ = 0;
};

/// A scan bound for execution: the columnar form of a catalog table plus
/// the row-index vector the relation starts from (the shared identity, or
/// the private table's include/replace index surgery). Shared by the
/// interpreted evaluator and the fused engine (relational/fused.h) so both
/// paths read byte-identical inputs through identical cache keys.
struct ScanBinding {
  std::shared_ptr<const ColumnarTable> table;
  std::shared_ptr<const SelVector> row_ids;
  /// True when `row_ids` is provenance: entry p is the private base-row
  /// index relation row p descends from.
  bool is_private = false;
};

/// Resolves `table_name` against the catalog and applies the private-table
/// options exactly like the columnar scan operator (including the block
/// cache for non-private scans when options.cache is set, keyed by the
/// context's default parallelism).
Result<ScanBinding> BindScanSource(engine::ExecContext* ctx,
                                   const Catalog* catalog,
                                   const std::string& table_name,
                                   const ExecOptions& options);

// ---------------------------------------------------------------------------
// The columnar fold, shared by the interpreted path and the fused kernels.

/// Fixed kernel batch size. Batch boundaries depend only on the row count,
/// never on the pool size.
inline constexpr size_t kBatch = 4096;

/// Kernel batches covering [0, n): batch b is rows [b * kBatch,
/// min(n, (b + 1) * kBatch)), for every scan, bare or derived.
inline size_t NumBatches(size_t n) { return (n + kBatch - 1) / kBatch; }

/// Runs fn over morsels of [0, n) on the pool's shared-cursor scheduler and
/// records the "morsel/<phase>" durations and task fan-out; each morsel
/// counts as one launched engine task (tasks_launched). A tripped cancel
/// token sheds morsels, so the output is partial until checked
/// (FinishAggregate does).
void MorselRun(engine::ExecContext* ctx, const std::string& phase, size_t n,
               size_t grain, const std::function<void(size_t, size_t)>& fn);

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
///
/// The slots are one flat array. A slot that got one weight holds it
/// inline and rounds to it (a NaN to the canonical quiet NaN, as
/// ExactSum::Round does); only a second add moves the slot into an
/// ExactSum. Every sampled row of a Count or of a Sum over one scan gets
/// exactly one weight, so such a pass makes no per-record allocation. An
/// empty slot rounds to +0.0.
class SamplePass {
 public:
  /// `rows` must be sorted and distinct (PlanExecutor::Execute checks);
  /// `partitions` is the enforcer partition count (> 0).
  SamplePass(const std::vector<size_t>& rows, size_t partitions);

  bool Contains(size_t row) const {
    return row < limit_ && ((bits_[row >> 6] >> (row & 63)) & 1) != 0;
  }
  /// Adds `weight` to the slot of sampled row `row`.
  void Add(size_t row, double weight);
  size_t partitions() const { return sampled_parts_.size(); }
  /// The pass's result from the per-partition sums of the unsampled rows:
  /// partition_outputs, sample_contributions (the rounded slots, aligned
  /// with the sample rows), partition_totals (both kinds of row) and
  /// `output` as their exact total (no per-row total is kept).
  ExecResult Finish(const std::vector<ExactSum>& partition_sums,
                    size_t result_rows) const;

 private:
  struct Slot {
    double weight = 0.0;   // the one weight, while adds == 1
    uint32_t adds = 0;     // 0, 1, or kSpilled
    uint32_t spilled = 0;  // index into spilled_, once adds == kSpilled
  };
  static constexpr uint32_t kSpilled = 2;

  double Round(const Slot& slot) const;

  const std::vector<size_t>& rows_;
  size_t limit_ = 0;
  std::vector<uint64_t> bits_;
  std::vector<Slot> slots_;
  std::vector<ExactSum> spilled_;
  std::vector<ExactSum> sampled_parts_;
};

/// Per-batch aggregation state, merged in batch order (merge order is
/// irrelevant: exact sums commute; min/max are associative).
struct BatchAcc {
  size_t rows = 0;  // rows that reached the aggregate
  ExactSum sum;     // Sum / Avg outside the one pass
  std::vector<ExactSum> parts;  // one pass: unsampled rows per partition,
                                // sized by the caller before the run
  std::vector<SampleHit> hits;  // one pass: sampled rows, in batch order
  double mn = std::numeric_limits<double>::infinity();   // Avg / Min / Max
  double mx = -std::numeric_limits<double>::infinity();  // Avg / Min / Max
};

/// The hash-join build of both columnar paths: entry i is the i-th build
/// row, found by its int64 key; entries sharing a key form a chain, newest
/// first. Direct-addressed (head[key - min]) when the keys span at most
/// kDenseSpan times their count, open-addressed (linear probing on Mix64)
/// otherwise. The choice reads only the keys and never changes a key's
/// chain. Read-only once built, so any number of probe morsels share it.
class JoinTable {
 public:
  static constexpr uint32_t kEnd = std::numeric_limits<uint32_t>::max();
  /// Span-to-count bound of direct addressing: at 4, the head array takes
  /// no more memory than the open-addressed slots would.
  static constexpr uint64_t kDenseSpan = 4;

  JoinTable() = default;
  explicit JoinTable(const std::vector<int64_t>& keys);

  /// The newest entry whose key is `key`, or kEnd.
  uint32_t Find(int64_t key) const {
    if (dense_) {
      const uint64_t off =
          static_cast<uint64_t>(key) - static_cast<uint64_t>(min_);
      return off < head_.size() ? head_[off] : kEnd;
    }
    for (uint64_t s = Mix64(static_cast<uint64_t>(key)) & mask_;
         head_[s] != kEnd; s = (s + 1) & mask_) {
      if (slot_key_[s] == key) return head_[s];
    }
    return kEnd;
  }
  /// The next older entry with `entry`'s key, or kEnd.
  uint32_t Next(uint32_t entry) const { return next_[entry]; }
  size_t size() const { return next_.size(); }
  bool dense() const { return dense_; }

 private:
  bool dense_ = true;
  int64_t min_ = 0;               // direct: the smallest key
  uint64_t mask_ = 0;             // open: slot count - 1
  std::vector<uint32_t> head_;    // newest entry per key offset / slot
  std::vector<int64_t> slot_key_;  // open: each slot's key
  std::vector<uint32_t> next_;
};

/// The status of a join whose key column `key` holds a non-integer cell
/// on a row that reaches the join. Every engine returns it.
Status NonIntegerJoinKey(const std::string& key);

/// The aggregate-level status checks, shared with the row oracle: the one
/// pass needs Count or Sum (Unsupported), and Sum/Avg/Min/Max need an
/// expression over known columns of `schema` (InvalidArgument).
Status CheckAggregate(const PlanPtr& plan, const Schema& schema,
                      const ExecOptions& options);

/// The finish of a columnar run: the post-run cancel check (a partial fold
/// is never reported), then SamplePass::Finish for a one pass (non-null
/// `sample`), Avg/Min/Max (FailedPrecondition over no rows) or the plain
/// total; Count's total is the row count.
Result<ExecResult> FinishAggregate(engine::ExecContext* ctx, AggKind agg,
                                   const std::vector<BatchAcc>& accs,
                                   SamplePass* sample);

/// Executes an Aggregate-rooted plan on the columnar engine. Root/option
/// validation is PlanExecutor::Execute's job; this expects a well-formed
/// root and returns the same statuses as the row oracle for unknown
/// tables/columns/join keys and non-integer join keys. Results are
/// bit-identical to the row path. Plans of the fusible shapes
/// (FusableShape: Aggregate(Filter*(Scan)), or an Aggregate over one Join
/// of two such chains) run on the single-pass fused kernels
/// (relational/fused.h); all others run interpreted.
Result<ExecResult> ExecuteColumnar(engine::ExecContext* ctx,
                                   const Catalog* catalog,
                                   const PlanPtr& plan,
                                   const ExecOptions& options);

/// The interpreted columnar path: one batch pass per plan node. Multi-join
/// plans reach it through ExecuteColumnar; differential tests and benches
/// call it directly to get the unfused baseline of a fusible plan.
Result<ExecResult> ExecuteColumnarInterpreted(engine::ExecContext* ctx,
                                              const Catalog* catalog,
                                              const PlanPtr& plan,
                                              const ExecOptions& options);

}  // namespace upa::rel
