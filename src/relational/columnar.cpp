#include "relational/columnar.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>

#include "common/cancel.h"
#include "common/env.h"
#include "common/exact_sum.h"
#include "common/failpoint.h"
#include "common/hash.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "relational/fused.h"
#include "relational/kernels.h"

namespace upa::rel {

// ---------------------------------------------------------------------------
// Fragment size knob
// ---------------------------------------------------------------------------

namespace {
constexpr size_t kDefaultFragmentRows = 64 * 1024;
std::atomic<size_t> g_fragment_rows{0};  // 0 = not yet initialized
}  // namespace

size_t DefaultFragmentRows() {
  size_t v = g_fragment_rows.load(std::memory_order_relaxed);
  if (v == 0) {
    v = static_cast<size_t>(std::max<int64_t>(
        1, EnvInt("UPA_FRAGMENT_ROWS",
                  static_cast<int64_t>(kDefaultFragmentRows))));
    g_fragment_rows.store(v, std::memory_order_relaxed);
  }
  return v;
}

void SetDefaultFragmentRows(size_t rows) {
  if (rows == 0) {
    g_fragment_rows.store(0, std::memory_order_relaxed);
    (void)DefaultFragmentRows();
    return;
  }
  g_fragment_rows.store(rows, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// ColumnarTable
// ---------------------------------------------------------------------------

std::shared_ptr<const ColumnarTable> ColumnarTable::Build(
    Schema schema, const std::vector<Row>& rows, size_t fragment_rows) {
  // No Status channel here (delay/abort actions only; see failpoint.h).
  UPA_FAILPOINT_HIT("columnar/build");
  const size_t ncols = schema.NumColumns();
  for (const Row& row : rows) {
    UPA_CHECK_MSG(row.size() == ncols, "row arity mismatch in columnar build");
  }
  Builder builder(std::move(schema), rows.size());
  for (const Row& row : rows) {
    for (const Value& cell : row) builder.Cell(cell);
  }
  return std::move(builder).Finish(fragment_rows);
}

Row ColumnarTable::RowAt(size_t i) const {
  Row row;
  row.reserve(columns_.size());
  for (const Column& col : columns_) {
    switch (col.type) {
      case ValueType::kInt: row.emplace_back(col.ints[i]); break;
      case ValueType::kDouble: row.emplace_back(col.doubles[i]); break;
      case ValueType::kString:
        row.emplace_back((*col.dict)[col.codes[i]]);
        break;
    }
  }
  return row;
}

ColumnarTable::Builder::Builder(Schema schema, size_t expected_rows)
    : schema_(std::move(schema)), drafts_(schema_.NumColumns()) {
  for (size_t c = 0; c < drafts_.size(); ++c) {
    switch (schema_.column(c).type) {
      case ValueType::kInt: drafts_[c].ints.reserve(expected_rows); break;
      case ValueType::kDouble: drafts_[c].doubles.reserve(expected_rows); break;
      case ValueType::kString: drafts_[c].strings.reserve(expected_rows); break;
    }
  }
}

void ColumnarTable::Builder::Cell(const Value& v) {
  switch (TypeOf(v)) {
    case ValueType::kInt: Int(std::get<int64_t>(v)); break;
    case ValueType::kDouble: Double(std::get<double>(v)); break;
    case ValueType::kString: String(std::get<std::string>(v)); break;
  }
}

void ColumnarTable::Builder::Draft::AddInt(int64_t v) {
  has_numeric = true;
  if (is_double) {
    doubles.push_back(static_cast<double>(v));  // == AsNumeric
  } else {
    ints.push_back(v);
  }
}

void ColumnarTable::Builder::Draft::AddDouble(double v) {
  has_numeric = true;
  if (!is_double) {
    is_double = true;
    doubles.reserve(std::max(ints.capacity(), ints.size() + 1));
    for (int64_t i : ints) doubles.push_back(static_cast<double>(i));
    ints = {};
  }
  doubles.push_back(v);
}

std::shared_ptr<const ColumnarTable> ColumnarTable::Builder::Finish(
    size_t fragment_rows) && {
  const size_t ncols = drafts_.size();
  UPA_CHECK_MSG(ncols == 0 ? cells_ == 0 : cells_ % ncols == 0,
                "row arity mismatch in columnar build");
  const size_t num_rows = ncols == 0 ? 0 : cells_ / ncols;
  UPA_CHECK_MSG(num_rows < std::numeric_limits<uint32_t>::max(),
                "table too large for columnar row ids");
  auto ct = std::shared_ptr<ColumnarTable>(new ColumnarTable());
  ct->schema_ = std::move(schema_);
  ct->num_rows_ = num_rows;

  ct->columns_.resize(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    Column& col = ct->columns_[c];
    Draft& draft = drafts_[c];
    if (num_rows == 0) {
      // No cells to inspect: use the declared type (comparisons against an
      // empty column never execute, but compilation needs a dictionary).
      col.type = ct->schema_.column(c).type;
      if (col.type == ValueType::kString) {
        col.dict = std::make_shared<const std::vector<std::string>>();
      }
      continue;
    }
    // Columns are typed by their *actual* cells, not the declared schema
    // type: an all-int64 column stays an int column even when declared
    // double, so strict accessors (AsInt join keys) behave like the row
    // oracle. A column mixing strings with numerics has no single physical
    // type — the row store tolerates that lazily, columnar storage cannot.
    UPA_CHECK_MSG(draft.strings.empty() || !draft.has_numeric,
                  "column mixes string and numeric cells: " +
                      ct->schema_.column(c).name);
    if (!draft.strings.empty()) {
      col.type = ValueType::kString;
      // The sorted, distinct cells are the dictionary; a cell's code is its
      // rank among them, so code order == string order.
      std::vector<std::string_view> sorted = draft.strings;
      std::sort(sorted.begin(), sorted.end());
      sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
      col.codes.reserve(num_rows);
      for (std::string_view cell : draft.strings) {
        col.codes.push_back(static_cast<uint32_t>(
            std::lower_bound(sorted.begin(), sorted.end(), cell) -
            sorted.begin()));
      }
      col.dict = std::make_shared<const std::vector<std::string>>(
          sorted.begin(), sorted.end());
    } else if (draft.is_double) {
      col.type = ValueType::kDouble;
      col.doubles = std::move(draft.doubles);
    } else {
      col.type = ValueType::kInt;
      col.ints = std::move(draft.ints);
    }
  }

  const size_t frag_rows =
      fragment_rows == 0 ? DefaultFragmentRows() : fragment_rows;
  ct->fragment_rows_ = frag_rows;
  auto ident = std::make_shared<SelVector>(num_rows);
  std::iota(ident->begin(), ident->end(), 0u);
  ct->identity_ = std::move(ident);

  ct->fragments_.reserve((num_rows + frag_rows - 1) / frag_rows);
  for (size_t begin = 0; begin < num_rows; begin += frag_rows) {
    const size_t end = std::min(num_rows, begin + frag_rows);
    FragmentInfo frag;
    frag.begin_row = static_cast<uint32_t>(begin);
    frag.end_row = static_cast<uint32_t>(end);
    frag.cols.resize(ncols);
    for (size_t c = 0; c < ncols; ++c) {
      const Column& col = ct->columns_[c];
      FragmentColStats& st = frag.cols[c];
      switch (col.type) {
        case ValueType::kInt: {
          // Bounds over the kernel's comparison domain: NumCmpFilter casts
          // int cells to double, and double(int64) is monotonic, so the
          // cast of the min/max bounds every cast cell.
          st.numeric_valid = true;
          st.min = static_cast<double>(col.ints[begin]);
          st.max = st.min;
          for (size_t i = begin; i < end; ++i) {
            const double v = static_cast<double>(col.ints[i]);
            st.min = std::min(st.min, v);
            st.max = std::max(st.max, v);
          }
          break;
        }
        case ValueType::kDouble: {
          st.numeric_valid = true;
          st.min = std::numeric_limits<double>::infinity();
          st.max = -std::numeric_limits<double>::infinity();
          for (size_t i = begin; i < end; ++i) {
            const double v = col.doubles[i];
            if (std::isnan(v)) {
              // NaN defeats interval reasoning (every comparison on it is
              // false); publish no bounds rather than unsound ones.
              st.numeric_valid = false;
              break;
            }
            st.min = std::min(st.min, v);
            st.max = std::max(st.max, v);
          }
          break;
        }
        case ValueType::kString: {
          st.codes_valid = true;
          st.min_code = col.codes[begin];
          st.max_code = st.min_code;
          for (size_t i = begin; i < end; ++i) {
            const uint32_t code = col.codes[i];
            st.min_code = std::min(st.min_code, code);
            st.max_code = std::max(st.max_code, code);
          }
          break;
        }
      }
    }
    ct->fragments_.push_back(std::move(frag));
  }
  return ct;
}

// ---------------------------------------------------------------------------
// Fragment skipping (zone maps)
// ---------------------------------------------------------------------------

namespace {

/// What a predicate subtree can evaluate to over a fragment: `can_true`
/// false means provably no row satisfies it, `can_false` false means
/// provably every row does, and either claim additionally guarantees the
/// evaluation that produces it is abort-free. `safe` means evaluating the
/// subtree on any subset of the fragment's rows cannot abort — the
/// precondition for concluding anything from a *sibling*'s bounds (an
/// AND whose rhs is unsatisfiable still evaluates its lhs on every row).
/// Defaults are the sound "don't know".
struct MatchBounds {
  bool can_true = true;
  bool can_false = true;
  bool safe = false;
};

struct NumInterval {
  bool valid = false;
  double lo = 0.0;
  double hi = 0.0;
};

/// True when projecting the operand to doubles can never abort: bare
/// numeric columns and numeric literals. Arithmetic can divide by zero and
/// string operands trip ProjectKernel's type check, so both stay false.
bool OperandSafe(const CompiledExpr& e) {
  return (e.kind == Expr::Kind::kLiteral || e.kind == Expr::Kind::kColumn) &&
         !e.is_string;
}

/// Interval of a comparison operand in the kernel's double domain. Only
/// bare columns and numeric literals yield intervals; arithmetic operands
/// (whose evaluation could even abort, e.g. division) stay unknown.
NumInterval OperandInterval(const CompiledExpr& e, const FragmentInfo& frag) {
  NumInterval iv;
  if (e.kind == Expr::Kind::kLiteral && !e.is_string) {
    if (!std::isnan(e.num_lit)) {  // NaN comparisons defeat interval logic
      iv = {true, e.num_lit, e.num_lit};
    }
  } else if (e.kind == Expr::Kind::kColumn && !e.is_string) {
    const FragmentColStats& st = frag.cols[e.col_pos];
    if (st.numeric_valid) iv = {true, st.min, st.max};
  }
  return iv;
}

/// Sign test used by the string comparison kernels.
bool SignSatisfies(BinOp op, int c) {
  switch (op) {
    case BinOp::kLt: return c < 0;
    case BinOp::kLe: return c <= 0;
    case BinOp::kGt: return c > 0;
    case BinOp::kGe: return c >= 0;
    case BinOp::kEq: return c == 0;
    default: return c != 0;  // kNe
  }
}

/// Interval tables mirror the kernels exactly: numeric comparisons run in
/// the double domain (kLe is !(x>y), kEq is !(x<y)&&!(x>y)), string
/// col-vs-lit comparisons run on dictionary codes against the compiled
/// [lit_lb, lit_ub) thresholds.
MatchBounds CmpBounds(const CompiledExpr& e, const FragmentInfo& frag) {
  if (e.mixed_cmp) {
    // String-vs-numeric: Eq is uniformly false and Ne uniformly true (no
    // abort); the ordered forms abort on evaluation, so they must never be
    // the basis of a skip nor count as safe for a sibling's.
    if (e.op == BinOp::kEq) return {false, true, true};
    if (e.op == BinOp::kNe) return {true, false, true};
    return {};
  }
  if (e.str_cmp) {
    // Every string-vs-string comparison form is abort-free.
    if (e.str_form == CompiledExpr::StrForm::kLitLit) {
      const bool sat = SignSatisfies(e.op, e.lit_cmp);
      return {sat, !sat, true};
    }
    if (e.str_form != CompiledExpr::StrForm::kColLit) return {true, true, true};
    const FragmentColStats& st = frag.cols[e.lhs->col_pos];
    if (!st.codes_valid) return {true, true, true};
    const uint32_t mc = st.min_code, xc = st.max_code;
    const uint32_t lb = e.lit_lb, ub = e.lit_ub;
    const bool found = lb < ub;
    switch (e.op) {
      case BinOp::kLt: return {mc < lb, xc >= lb, true};
      case BinOp::kLe: return {mc < ub, xc >= ub, true};
      case BinOp::kGt: return {xc >= ub, mc < ub, true};
      case BinOp::kGe: return {xc >= lb, mc < lb, true};
      case BinOp::kEq:
        return {found && mc <= lb && lb <= xc,
                !(found && mc == xc && mc == lb), true};
      default:  // kNe
        return {!found || !(mc == xc && mc == lb),
                found && mc <= lb && lb <= xc, true};
    }
  }
  const bool safe = OperandSafe(*e.lhs) && OperandSafe(*e.rhs);
  const NumInterval l = OperandInterval(*e.lhs, frag);
  const NumInterval r = OperandInterval(*e.rhs, frag);
  if (!l.valid || !r.valid) return {true, true, safe};
  const bool point = l.lo == l.hi && r.lo == r.hi && l.lo == r.lo;
  switch (e.op) {
    case BinOp::kLt: return {l.lo < r.hi, l.hi >= r.lo, safe};
    case BinOp::kLe: return {l.lo <= r.hi, l.hi > r.lo, safe};
    case BinOp::kGt: return {l.hi > r.lo, l.lo <= r.hi, safe};
    case BinOp::kGe: return {l.hi >= r.lo, l.lo < r.hi, safe};
    case BinOp::kEq: return {l.lo <= r.hi && r.lo <= l.hi, !point, safe};
    default:  // kNe
      return {!point, l.lo <= r.hi && r.lo <= l.hi, safe};
  }
}

MatchBounds PredicateBounds(const CompiledExpr& e, const FragmentInfo& frag) {
  switch (e.kind) {
    case Expr::Kind::kLiteral: {
      if (e.is_string) return {};  // aborts when evaluated — never skip
      const bool truthy = e.num_lit != 0.0;
      return {truthy, !truthy, true};
    }
    case Expr::Kind::kColumn: {
      if (e.is_string) return {};  // aborts when evaluated — never skip
      const FragmentColStats& st = frag.cols[e.col_pos];
      if (!st.numeric_valid) return {true, true, true};
      // Truthy iff != 0 (int cells compare as int, but double(int64) is
      // monotonic so the all-zero / no-zero facts carry over exactly).
      return {!(st.min == 0.0 && st.max == 0.0),
              st.min <= 0.0 && 0.0 <= st.max, true};
    }
    case Expr::Kind::kNot: {
      const MatchBounds c = PredicateBounds(*e.lhs, frag);
      return {c.can_false, c.can_true, c.safe};
    }
    case Expr::Kind::kInSet: {
      // The kernel projects lhs even when the set can't match, so lhs-side
      // aborts still fire; only bare-column / numeric-literal lhs is safe.
      const CompiledExpr& l = *e.lhs;
      const bool safe = OperandSafe(l) || l.kind == Expr::Kind::kColumn;
      if (l.is_string && l.kind == Expr::Kind::kColumn) {
        const FragmentColStats& st = frag.cols[l.col_pos];
        if (!st.codes_valid) return {true, true, safe};
        for (uint32_t c : e.code_set) {
          if (st.min_code <= c && c <= st.max_code) return {true, true, safe};
        }
        return {false, true, safe};  // no set element's code can occur here
      }
      if (l.kind == Expr::Kind::kColumn && !l.is_string) {
        const FragmentColStats& st = frag.cols[l.col_pos];
        if (!st.numeric_valid) return {true, true, safe};
        for (double s : e.num_set) {
          // Membership is Compare(v, s) == 0 in the double domain.
          if (!(s < st.min) && !(s > st.max)) return {true, true, safe};
        }
        return {false, true, safe};
      }
      return {true, true, safe};  // literal/arithmetic lhs: no leverage
    }
    case Expr::Kind::kBinary:
      break;
  }
  switch (e.op) {
    case BinOp::kAnd: {
      // The kernels evaluate lhs first and rhs only on surviving rows, so
      // "lhs unsatisfiable" alone justifies the skip even when rhs would
      // abort (it would have seen zero rows). The converse needs care:
      // "rhs unsatisfiable" only justifies a skip when evaluating lhs on
      // the fragment provably cannot abort.
      const MatchBounds l = PredicateBounds(*e.lhs, frag);
      const MatchBounds r = PredicateBounds(*e.rhs, frag);
      return {l.can_true && (r.can_true || !l.safe),
              l.can_false || r.can_false, l.safe && r.safe};
    }
    case BinOp::kOr: {
      // Dual of And: "lhs satisfied by every row" alone proves the Or (rhs
      // sees zero rows), while "rhs satisfied by every row" additionally
      // needs lhs evaluation to be abort-free.
      const MatchBounds l = PredicateBounds(*e.lhs, frag);
      const MatchBounds r = PredicateBounds(*e.rhs, frag);
      return {l.can_true || r.can_true,
              l.can_false && (r.can_false || !l.safe),
              l.safe && r.safe};
    }
    case BinOp::kAdd:
    case BinOp::kSub:
    case BinOp::kMul:
    case BinOp::kDiv:
      return {};  // arithmetic truthiness: no interval reasoning, may abort
    default:
      return CmpBounds(e, frag);
  }
}

}  // namespace

bool FragmentCanMatch(const CompiledExpr& pred, const ColumnarTable& table,
                      size_t frag) {
  return PredicateBounds(pred, table.fragments()[frag]).can_true;
}

// ---------------------------------------------------------------------------
// Vectorized evaluation
// ---------------------------------------------------------------------------

std::vector<BatchRange> BatchLayout(const ColumnarTable* bare,
                                    size_t num_rows) {
  std::vector<BatchRange> out;
  if (bare != nullptr) {
    const auto& frags = bare->fragments();
    out.reserve(num_rows / kBatch + frags.size());
    for (size_t f = 0; f < frags.size(); ++f) {
      for (size_t b = frags[f].begin_row; b < frags[f].end_row; b += kBatch) {
        out.push_back({static_cast<uint32_t>(b),
                       static_cast<uint32_t>(
                           std::min<size_t>(frags[f].end_row, b + kBatch)),
                       static_cast<int32_t>(f)});
      }
    }
    return out;
  }
  out.reserve((num_rows + kBatch - 1) / kBatch);
  for (size_t b = 0; b < num_rows; b += kBatch) {
    out.push_back({static_cast<uint32_t>(b),
                   static_cast<uint32_t>(std::min(num_rows, b + kBatch)), -1});
  }
  return out;
}

std::vector<uint8_t> MatchFragments(engine::ExecContext* ctx,
                                    const CompiledExpr& pred,
                                    const ColumnarTable& table) {
  std::vector<uint8_t> match(table.fragments().size());
  size_t skipped = 0;
  for (size_t f = 0; f < match.size(); ++f) {
    match[f] = FragmentCanMatch(pred, table, f) ? 1 : 0;
    if (!match[f]) ++skipped;
  }
  if (skipped > 0) {
    ctx->metrics().AddCounter("columnar/fragments_skipped", skipped);
  }
  ctx->metrics().AddCounter("columnar/fragments_scanned",
                            match.size() - skipped);
  return match;
}

void MorselRun(engine::ExecContext* ctx, const std::string& phase, size_t n,
               size_t grain, const std::function<void(size_t, size_t)>& fn) {
  ThreadPool::MorselTimings timings;
  const size_t morsels = ctx->pool().ParallelForMorsels(n, grain, fn, &timings);
  ctx->metrics().RecordMorselRun(phase, timings.seconds);
  ctx->metrics().AddPhaseTasks(phase, morsels);
  ctx->metrics().AddTasks(morsels);
}

namespace {

constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

/// Cache tags. Distinct from the row engine's key tags: the block cache is
/// type-erased, so the same key must never map to differently-typed entries.
constexpr uint64_t kColScanTag = 0xc015'ca90ULL;
constexpr uint64_t kColSubtreeTag = 0xc01c'ac40ULL;

/// One input of a relation in flight: a columnar table plus the row-index
/// vector mapping relation positions [0, num_rows) to physical rows. This
/// is the late-materialization representation — operators re-index, they
/// never copy cell data.
struct ColSource {
  std::shared_ptr<const ColumnarTable> table;
  std::shared_ptr<const SelVector> row_ids;
};

struct ColRel {
  std::vector<ColSource> sources;
  /// Schema position → (source index, column index within the source).
  std::vector<std::pair<uint32_t, uint32_t>> col_map;
  Schema schema;
  size_t num_rows = 0;
  /// Index into `sources` of the private table's scan, or -1. Its row-index
  /// vector *is* the provenance column: entry p is the private base-row
  /// index that relation row p descends from.
  int private_source = -1;
};

std::vector<const Column*> PhysicalColumns(const ColRel& rel) {
  std::vector<const Column*> cols(rel.col_map.size());
  for (size_t i = 0; i < rel.col_map.size(); ++i) {
    cols[i] =
        &rel.sources[rel.col_map[i].first].table->column(rel.col_map[i].second);
  }
  return cols;
}

BatchInput BindColumns(const ColRel& rel,
                       const std::vector<const Column*>& cols) {
  BatchInput in(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    in[i] = {cols[i], rel.sources[rel.col_map[i].first].row_ids->data()};
  }
  return in;
}

size_t NumBatches(size_t n) { return (n + kBatch - 1) / kBatch; }

/// The bare scan's table when relation row i IS physical row i of a single
/// source and the schema maps 1:1 onto its columns — the precondition for
/// consulting that source's zone maps (compiled col_pos == physical column
/// position and fragment row ranges == relation row ranges); else null.
const ColumnarTable* BareScanTable(const ColRel& rel) {
  if (rel.sources.size() != 1) return nullptr;
  if (rel.sources[0].row_ids != rel.sources[0].table->identity()) {
    return nullptr;
  }
  for (size_t i = 0; i < rel.col_map.size(); ++i) {
    if (rel.col_map[i].first != 0 || rel.col_map[i].second != i) {
      return nullptr;
    }
  }
  return rel.sources[0].table.get();
}

class ColumnarEvaluator {
 public:
  ColumnarEvaluator(engine::ExecContext* ctx, const Catalog* catalog,
                    const ExecOptions& options)
      : ctx_(ctx),
        catalog_(catalog),
        options_(options),
        engine_partitions_(ctx->config().default_partitions) {}

  Result<ColRel> Eval(const PlanPtr& plan) {
    // Fully-public subtrees are identical across a release's passes, so
    // their (cheap, index-only) relation state is cached — same policy as
    // the row engine, keyed structurally so distinct plans never collide.
    const bool cacheable = options_.cache != nullptr &&
                           plan->kind != PlanKind::kScan &&
                           !options_.private_table.empty() &&
                           CountScansOf(plan, options_.private_table) == 0;
    if (cacheable) {
      uint64_t key = PlanFingerprint(plan, *catalog_) ^
                     Mix64(kColSubtreeTag + engine_partitions_);
      std::shared_ptr<const ColRel> hit = options_.cache->Get<ColRel>(key);
      if (hit != nullptr) return *hit;
      Result<ColRel> fresh = EvalUncached(plan);
      if (!fresh.ok()) return fresh;
      options_.cache->Put<ColRel>(key, fresh.value());
      return fresh;
    }
    return EvalUncached(plan);
  }

 private:
  Result<ColRel> EvalUncached(const PlanPtr& plan) {
    // Between plan nodes is the coarse cancellation boundary; within a
    // node, the batch-kernel ParallelFor polls at chunk granularity.
    UPA_RETURN_IF_ERROR(CancelScope::CheckCurrent());
    switch (plan->kind) {
      case PlanKind::kScan:
        return EvalScan(plan);
      case PlanKind::kFilter:
        return EvalFilter(plan);
      case PlanKind::kJoin:
        return EvalJoin(plan);
      case PlanKind::kAggregate:
        return Status::InvalidArgument(
            "Aggregate is only supported at the plan root");
    }
    return Status::Internal("unknown plan kind");
  }

  Result<ColRel> EvalScan(const PlanPtr& plan) {
    Result<ScanBinding> bindr =
        BindScanSource(ctx_, catalog_, plan->table, options_);
    if (!bindr.ok()) return bindr.status();
    ScanBinding bind = std::move(bindr).value();

    ColRel rel;
    rel.schema = bind.table->schema();
    if (bind.is_private) rel.private_source = 0;
    rel.num_rows = bind.row_ids->size();
    rel.sources.push_back({std::move(bind.table), std::move(bind.row_ids)});
    rel.col_map.resize(rel.schema.NumColumns());
    for (size_t c = 0; c < rel.schema.NumColumns(); ++c) {
      rel.col_map[c] = {0, static_cast<uint32_t>(c)};
    }
    return rel;
  }

  Result<ColRel> EvalFilter(const PlanPtr& plan) {
    Result<ColRel> childr = Eval(plan->left);
    if (!childr.ok()) return childr.status();
    ColRel child = std::move(childr.value());
    if (!ExprColumnsExist(plan->predicate, child.schema)) {
      return Status::InvalidArgument("filter references unknown column in " +
                                     plan->predicate->ToString());
    }
    std::vector<const Column*> cols = PhysicalColumns(child);
    const CompiledExpr pred = CompileExpr(plan->predicate, child.schema, cols);
    const BatchInput in = BindColumns(child, cols);

    const size_t n = child.num_rows;
    SelVector all(n);
    std::iota(all.begin(), all.end(), 0u);
    const ColumnarTable* bare = BareScanTable(child);
    const std::vector<BatchRange> layout = BatchLayout(bare, n);
    const size_t nb = layout.size();

    // Zone-map skipping (bare scans only): a skipped fragment's batches
    // contribute empty selections — exactly what scanning them would have
    // produced.
    std::vector<uint8_t> frag_match;
    if (bare != nullptr && !layout.empty()) {
      frag_match = MatchFragments(ctx_, pred, *bare);
    }

    std::vector<SelVector> hits(nb);
    MorselRun(ctx_, "columnar/filter", nb, 0, [&](size_t b0, size_t b1) {
      for (size_t b = b0; b < b1; ++b) {
        const BatchRange& br = layout[b];
        if (br.fragment >= 0 && !frag_match[br.fragment]) continue;
        FilterKernel(pred, in, all.data() + br.begin, br.end - br.begin,
                     hits[b]);
      }
    });
    ctx_->metrics().AddKernelBatches(nb);
    ctx_->metrics().AddKernelRows(n);
    return Reindex(std::move(child), hits);
  }

  /// Replaces every source's row-index vector with its gather through the
  /// per-batch selections (concatenated in batch order).
  ColRel Reindex(ColRel rel, const std::vector<SelVector>& hits) {
    const size_t nb = hits.size();
    std::vector<size_t> offset(nb + 1, 0);
    for (size_t b = 0; b < nb; ++b) offset[b + 1] = offset[b] + hits[b].size();
    const size_t total = offset[nb];
    std::vector<std::shared_ptr<SelVector>> fresh(rel.sources.size());
    for (auto& f : fresh) f = std::make_shared<SelVector>(total);
    MorselRun(ctx_, "columnar/reindex", nb, 0, [&](size_t b0, size_t b1) {
      for (size_t b = b0; b < b1; ++b) {
        const SelVector& h = hits[b];
        for (size_t s = 0; s < rel.sources.size(); ++s) {
          const uint32_t* old_ids = rel.sources[s].row_ids->data();
          uint32_t* out = fresh[s]->data() + offset[b];
          for (size_t i = 0; i < h.size(); ++i) out[i] = old_ids[h[i]];
        }
      }
    });
    for (size_t s = 0; s < rel.sources.size(); ++s) {
      rel.sources[s].row_ids = std::move(fresh[s]);
    }
    rel.num_rows = total;
    return rel;
  }

  /// Join-key column as a dense int64 array (one entry per relation row).
  std::vector<int64_t> KeyColumn(const ColRel& rel, size_t pos) {
    const auto& [s, c] = rel.col_map[pos];
    const Column& col = rel.sources[s].table->column(c);
    const uint32_t* ids = rel.sources[s].row_ids->data();
    const size_t n = rel.num_rows;
    if (n > 0) {
      // The row oracle keys joins through strict AsInt per row.
      UPA_CHECK_MSG(col.type == ValueType::kInt, "Value is not an int");
    }
    std::vector<int64_t> keys(n);
    const int64_t* vals = col.ints.data();
    MorselRun(ctx_, "columnar/join_key", n, kBatch,
              [&](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) keys[i] = vals[ids[i]];
              });
    return keys;
  }

  Result<ColRel> EvalJoin(const PlanPtr& plan) {
    Result<ColRel> lr = Eval(plan->left);
    if (!lr.ok()) return lr.status();
    Result<ColRel> rr = Eval(plan->right);
    if (!rr.ok()) return rr.status();
    ColRel left = std::move(lr.value());
    ColRel right = std::move(rr.value());

    auto lk = left.schema.Find(plan->left_key);
    auto rk = right.schema.Find(plan->right_key);
    if (!lk || !rk) {
      return Status::InvalidArgument("join key not found: " + plan->left_key +
                                     "=" + plan->right_key);
    }
    std::vector<int64_t> lkeys = KeyColumn(left, *lk);
    std::vector<int64_t> rkeys = KeyColumn(right, *rk);

    // Build a chained open-addressing table from the hinted side (set by
    // the cost-based optimizer from estimated cardinalities) or, absent a
    // hint, from the smaller materialized side; probe with the other in
    // batches. Output order is deterministic (probe order, chain order) —
    // and irrelevant to results anyway, since every downstream aggregate is
    // exact and order-independent.
    const bool build_left =
        plan->build_side == BuildSide::kAuto
            ? left.num_rows <= right.num_rows
            : plan->build_side == BuildSide::kLeft;
    const std::vector<int64_t>& bkeys = build_left ? lkeys : rkeys;
    const std::vector<int64_t>& pkeys = build_left ? rkeys : lkeys;
    const size_t nbuild = bkeys.size();
    const size_t nprobe = pkeys.size();

    // Per probe batch: matching (build position, probe position) pairs.
    const size_t nb = NumBatches(nprobe);
    std::vector<std::pair<SelVector, SelVector>> pairs(nb);
    if (nbuild > 0 && nprobe > 0) {
      size_t cap = 16;
      while (cap < nbuild * 2) cap <<= 1;
      const uint64_t mask = cap - 1;
      std::vector<uint32_t> slot_head(cap, kNone);
      std::vector<int64_t> slot_key(cap);
      std::vector<uint32_t> next(nbuild);
      for (size_t i = 0; i < nbuild; ++i) {
        const int64_t k = bkeys[i];
        size_t s = Mix64(static_cast<uint64_t>(k)) & mask;
        while (true) {
          if (slot_head[s] == kNone) {
            slot_key[s] = k;
            next[i] = kNone;
            slot_head[s] = static_cast<uint32_t>(i);
            break;
          }
          if (slot_key[s] == k) {
            next[i] = slot_head[s];
            slot_head[s] = static_cast<uint32_t>(i);
            break;
          }
          s = (s + 1) & mask;
        }
      }
      MorselRun(ctx_, "columnar/join_probe", nb, 0, [&](size_t b0, size_t b1) {
        for (size_t b = b0; b < b1; ++b) {
          auto& [bpos, ppos] = pairs[b];
          size_t begin = b * kBatch, end = std::min(nprobe, begin + kBatch);
          for (size_t j = begin; j < end; ++j) {
            const int64_t k = pkeys[j];
            size_t s = Mix64(static_cast<uint64_t>(k)) & mask;
            while (slot_head[s] != kNone) {
              if (slot_key[s] == k) {
                for (uint32_t i = slot_head[s]; i != kNone; i = next[i]) {
                  bpos.push_back(i);
                  ppos.push_back(static_cast<uint32_t>(j));
                }
                break;
              }
              s = (s + 1) & mask;
            }
          }
        }
      });
    }
    ctx_->metrics().AddKernelBatches(nb);
    ctx_->metrics().AddKernelRows(nprobe);
    // In the distributed plan this engine models, a join exchanges both
    // sides (the row engine's HashJoin shuffles each input); count the same
    // rounds/records so overhead attribution stays engine-independent.
    ctx_->metrics().AddShuffleRound();
    ctx_->metrics().AddShuffleRecords(left.num_rows);
    ctx_->metrics().AddShuffleRound();
    ctx_->metrics().AddShuffleRecords(right.num_rows);

    std::vector<size_t> offset(nb + 1, 0);
    for (size_t b = 0; b < nb; ++b) {
      offset[b + 1] = offset[b] + pairs[b].first.size();
    }
    const size_t total = offset[nb];
    UPA_CHECK_MSG(total < std::numeric_limits<uint32_t>::max(),
                  "join output too large for columnar row ids");

    ColRel out;
    out.schema = Schema::Concat(left.schema, right.schema);
    out.num_rows = total;
    const size_t nleft = left.sources.size();
    out.sources.resize(nleft + right.sources.size());
    std::vector<std::shared_ptr<SelVector>> fresh(out.sources.size());
    for (size_t s = 0; s < out.sources.size(); ++s) {
      const ColSource& src =
          s < nleft ? left.sources[s] : right.sources[s - nleft];
      out.sources[s].table = src.table;
      fresh[s] = std::make_shared<SelVector>(total);
    }
    MorselRun(ctx_, "columnar/join_gather", nb, 0, [&](size_t b0, size_t b1) {
      for (size_t b = b0; b < b1; ++b) {
        // Left-side rows come from the build positions iff we built from
        // the left; right-side rows from the other element of the pair.
        const SelVector& lpos = build_left ? pairs[b].first : pairs[b].second;
        const SelVector& rpos = build_left ? pairs[b].second : pairs[b].first;
        for (size_t s = 0; s < out.sources.size(); ++s) {
          const ColSource& src =
              s < nleft ? left.sources[s] : right.sources[s - nleft];
          const SelVector& pos = s < nleft ? lpos : rpos;
          const uint32_t* old_ids = src.row_ids->data();
          uint32_t* dst = fresh[s]->data() + offset[b];
          for (size_t i = 0; i < pos.size(); ++i) dst[i] = old_ids[pos[i]];
        }
      }
    });
    for (size_t s = 0; s < out.sources.size(); ++s) {
      out.sources[s].row_ids = std::move(fresh[s]);
    }

    out.col_map.reserve(left.col_map.size() + right.col_map.size());
    for (const auto& [s, c] : left.col_map) out.col_map.push_back({s, c});
    for (const auto& [s, c] : right.col_map) {
      out.col_map.push_back({static_cast<uint32_t>(s + nleft), c});
    }
    if (left.private_source >= 0) {
      out.private_source = left.private_source;
    } else if (right.private_source >= 0) {
      out.private_source = static_cast<int>(right.private_source + nleft);
    }
    return out;
  }

  engine::ExecContext* ctx_;
  const Catalog* catalog_;
  const ExecOptions& options_;
  const size_t engine_partitions_;
};

}  // namespace

SamplePass::SamplePass(const std::vector<size_t>& rows, size_t partitions)
    : rows_(rows),
      limit_(rows.empty() ? 0 : rows.back() + 1),
      bits_((limit_ + 63) / 64, 0),
      slots_(rows.size()),
      sampled_parts_(partitions) {
  for (size_t r : rows) bits_[r >> 6] |= uint64_t{1} << (r & 63);
}

void SamplePass::Add(size_t row, double weight) {
  Slot& slot =
      slots_[std::lower_bound(rows_.begin(), rows_.end(), row) - rows_.begin()];
  if (slot.adds == 0) {
    slot.weight = weight;
    slot.adds = 1;
  } else {
    if (slot.adds == 1) {
      slot.spilled = static_cast<uint32_t>(spilled_.size());
      spilled_.emplace_back().Add(slot.weight);
      slot.adds = kSpilled;
    }
    spilled_[slot.spilled].Add(weight);
  }
  sampled_parts_[row % sampled_parts_.size()].Add(weight);
}

double SamplePass::Round(const Slot& slot) const {
  switch (slot.adds) {
    case 0:
      return 0.0;
    case 1:
      // What an ExactSum of one value rounds to.
      return std::isnan(slot.weight) ? std::numeric_limits<double>::quiet_NaN()
                                     : slot.weight;
    default:
      return spilled_[slot.spilled].Round();
  }
}

ExecResult SamplePass::Finish(const std::vector<ExactSum>& partition_sums,
                              size_t result_rows) const {
  ExecResult result;
  result.result_rows = result_rows;
  result.partition_totals = sampled_parts_;
  result.partition_outputs.resize(partition_sums.size());
  ExactSum total;
  for (size_t p = 0; p < partition_sums.size(); ++p) {
    result.partition_outputs[p] = partition_sums[p].Round();
    result.partition_totals[p].Merge(partition_sums[p]);
    total.Merge(result.partition_totals[p]);
  }
  result.output = total.Round();
  result.sample_contributions.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    result.sample_contributions.push_back(Round(slot));
  }
  return result;
}

Status CheckAggregate(const PlanPtr& plan, const Schema& schema,
                      const ExecOptions& options) {
  const bool additive =
      plan->agg == AggKind::kCount || plan->agg == AggKind::kSum;
  if (!additive && options.sample_rows != nullptr) {
    return Status::Unsupported(
        "the one provenance pass requires an additive aggregate (Count or "
        "Sum)");
  }
  if (plan->agg == AggKind::kCount) return Status::Ok();
  if (plan->agg_expr == nullptr) {
    return Status::InvalidArgument("aggregate missing expression");
  }
  if (!ExprColumnsExist(plan->agg_expr, schema)) {
    return Status::InvalidArgument(
        "aggregate expression references unknown column in " +
        schema.ToString());
  }
  return Status::Ok();
}

Result<ExecResult> FinishAggregate(engine::ExecContext* ctx, AggKind agg,
                                   const std::vector<BatchAcc>& accs,
                                   SamplePass* sample) {
  // A cancel tripped mid-run sheds morsels; never report the partial fold.
  UPA_RETURN_IF_ERROR(CancelScope::CheckCurrent());
  size_t rows = 0;
  for (const BatchAcc& a : accs) rows += a.rows;
  if (sample != nullptr) {
    // The RANGE ENFORCER's per-partition aggregation is a real record
    // exchange in the row engine (ShuffleByKey over provenance-carrying
    // rows); account the same round here.
    ctx->metrics().AddShuffleRound();
    ctx->metrics().AddShuffleRecords(rows);
    std::vector<ExactSum> pid_sums(sample->partitions());
    for (const BatchAcc& a : accs) {
      for (const SampleHit& h : a.hits) sample->Add(h.row, h.weight);
      for (size_t p = 0; p < a.parts.size(); ++p) pid_sums[p].Merge(a.parts[p]);
    }
    return sample->Finish(pid_sums, rows);
  }

  // An exact sum of ones rounds to exactly the count, so Count adds the
  // row count once instead of a one per row.
  ExactSum total;
  if (agg == AggKind::kCount) {
    total.Add(static_cast<double>(rows));
  } else {
    for (const BatchAcc& a : accs) total.Merge(a.sum);
  }
  ExecResult result;
  result.result_rows = rows;
  if (agg == AggKind::kCount || agg == AggKind::kSum) {
    result.output = total.Round();
    return result;
  }
  if (rows == 0) {
    return Status::FailedPrecondition(
        "Avg/Min/Max aggregate over an empty relation");
  }
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  for (const BatchAcc& a : accs) {
    mn = a.mn < mn ? a.mn : mn;
    mx = a.mx > mx ? a.mx : mx;
  }
  switch (agg) {
    case AggKind::kAvg:
      result.output = total.Round() / static_cast<double>(rows);
      break;
    case AggKind::kMin:
      result.output = mn;
      break;
    default:  // kMax
      result.output = mx;
      break;
  }
  return result;
}

Result<ScanBinding> BindScanSource(engine::ExecContext* ctx,
                                   const Catalog* catalog,
                                   const std::string& table_name,
                                   const ExecOptions& options) {
  auto it = catalog->find(table_name);
  if (it == catalog->end()) {
    return Status::NotFound("unknown table: " + table_name);
  }
  const Table* table = it->second;

  ScanBinding bind;
  bind.is_private = !options.private_table.empty() &&
                    table_name == options.private_table;
  if (!bind.is_private) {
    if (options.cache != nullptr) {
      // Route through the caller's block cache so scan reuse across a
      // release's passes is observable in the hit/miss metrics (the Fig
      // 4(b) effect), exactly like the row engine's materialized-scan cache.
      uint64_t key = Mix64(table->uid()) ^
                     Mix64(kColScanTag + ctx->config().default_partitions);
      auto cached =
          options.cache->GetOrCompute<std::shared_ptr<const ColumnarTable>>(
              key, [&] { return table->Columnar(); });
      bind.table = *cached;
    } else {
      bind.table = table->Columnar();
    }
    bind.row_ids = bind.table->identity();
    return bind;
  }
  // The private table's include/replace options are plain index-vector
  // surgery: provenance is the row-index itself. The one provenance pass
  // scans the identity, so it keeps the dense kernels.
  // A replacement outlives the pass (ExecOptions' contract), so it is bound
  // without taking ownership.
  bind.table = options.replace_private_rows != nullptr
                   ? std::shared_ptr<const ColumnarTable>(
                         std::shared_ptr<const ColumnarTable>(),
                         options.replace_private_rows)
                   : table->Columnar();
  if (options.include_rows != nullptr) {
    // Validated by PlanExecutor::Execute: sorted, distinct, in range.
    bind.row_ids = std::make_shared<SelVector>(options.include_rows->begin(),
                                               options.include_rows->end());
  } else {
    bind.row_ids = bind.table->identity();
  }
  return bind;
}

Result<ExecResult> ExecuteColumnar(engine::ExecContext* ctx,
                                   const Catalog* catalog, const PlanPtr& plan,
                                   const ExecOptions& options) {
  UPA_FAILPOINT("columnar/execute");
  UPA_RETURN_IF_ERROR(CancelScope::CheckCurrent());
  if (std::optional<FusedShape> shape = FusableShape(plan)) {
    return ExecuteFused(ctx, catalog, plan, *shape, options);
  }
  return ExecuteColumnarInterpreted(ctx, catalog, plan, options);
}

Result<ExecResult> ExecuteColumnarInterpreted(engine::ExecContext* ctx,
                                              const Catalog* catalog,
                                              const PlanPtr& plan,
                                              const ExecOptions& options) {
  ColumnarEvaluator evaluator(ctx, catalog, options);
  Result<ColRel> relr = evaluator.Eval(plan->left);
  if (!relr.ok()) return relr.status();
  ColRel rel = std::move(relr.value());
  UPA_RETURN_IF_ERROR(CheckAggregate(plan, rel.schema, options));

  const size_t n = rel.num_rows;
  const size_t nb = NumBatches(n);
  const bool need_expr = plan->agg != AggKind::kCount;
  std::vector<const Column*> cols = PhysicalColumns(rel);
  std::optional<CompiledExpr> weight;
  BatchInput in;
  if (need_expr) {
    weight.emplace(CompileExpr(plan->agg_expr, rel.schema, cols));
    in = BindColumns(rel, cols);
  }
  SelVector all(n);
  std::iota(all.begin(), all.end(), 0u);

  // The one provenance pass (validated by PlanExecutor::Execute: the
  // private table is scanned, so every row has provenance).
  std::optional<SamplePass> sample;
  const uint32_t* prov = nullptr;
  if (options.sample_rows != nullptr) {
    sample.emplace(*options.sample_rows, options.partitions);
    prov = rel.sources[rel.private_source].row_ids->data();
  }
  const size_t parts = options.partitions;
  const bool need_sum = !sample.has_value() && (plan->agg == AggKind::kSum ||
                                                plan->agg == AggKind::kAvg);
  const bool minmax =
      plan->agg != AggKind::kCount && plan->agg != AggKind::kSum;

  std::vector<BatchAcc> accs(nb);
  for (BatchAcc& a : accs) a.parts.resize(sample.has_value() ? parts : 0);
  MorselRun(ctx, "columnar/aggregate", nb, 0, [&](size_t b0, size_t b1) {
    std::vector<double> w;
    for (size_t b = b0; b < b1; ++b) {
      const size_t begin = b * kBatch, end = std::min(n, begin + kBatch);
      const size_t m = end - begin;
      BatchAcc& acc = accs[b];
      acc.rows = m;
      if (need_expr) {
        w.resize(m);
        ProjectKernel(*weight, in, all.data() + begin, m, w.data());
      } else if (sample.has_value()) {
        w.assign(m, 1.0);  // Count
      } else {
        continue;  // Count: the total is the row count
      }
      for (size_t i = 0; i < m; ++i) {
        if (need_sum) acc.sum.Add(w[i]);
        if (minmax) {
          acc.mn = w[i] < acc.mn ? w[i] : acc.mn;  // == std::min(mn, w)
          acc.mx = w[i] > acc.mx ? w[i] : acc.mx;  // == std::max(mx, w)
        }
        if (prov == nullptr) continue;
        const uint32_t r = prov[begin + i];
        if (sample->Contains(r)) {
          acc.hits.push_back({r, w[i]});
        } else {
          acc.parts[r % parts].Add(w[i]);
        }
      }
    }
  });
  ctx->metrics().AddKernelBatches(nb);
  ctx->metrics().AddKernelRows(n);
  return FinishAggregate(ctx, plan->agg, accs,
                         sample.has_value() ? &*sample : nullptr);
}

}  // namespace upa::rel
