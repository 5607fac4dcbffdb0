#include "relational/fused.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "common/status.h"
#include "relational/kernels.h"

namespace upa::rel {

namespace {

// ---------------------------------------------------------------------------
// Specialized conjunct kernels
// ---------------------------------------------------------------------------
//
// The two shapes worth compiling are the ones every TPC-H filter is made
// of: numeric column vs numeric literal, and string column vs string
// literal (pre-resolved to dictionary-code thresholds). Each gets a dense
// form (first conjunct: scans a contiguous row range) and a select form
// (later conjuncts: scans the survivors of the previous one). Both write
// with a branch-free cursor advance — `out[k] = pos; k += predicate` —
// so the loops have no data-dependent branches and autovectorize.
//
// Comparison semantics are NumCmpFilter's / StringCmpFilter's, spelled
// with the identical expressions so NaN and missing-literal behaviour is
// bit-for-bit the interpreted path's (see kernels.cpp).

/// The six comparison operators, as a dense dispatch axis.
enum class CmpKind { kLt, kLe, kGt, kGe, kEq, kNe };

CmpKind CmpKindOf(BinOp op) {
  switch (op) {
    case BinOp::kLt: return CmpKind::kLt;
    case BinOp::kLe: return CmpKind::kLe;
    case BinOp::kGt: return CmpKind::kGt;
    case BinOp::kGe: return CmpKind::kGe;
    case BinOp::kEq: return CmpKind::kEq;
    default: return CmpKind::kNe;
  }
}

/// Exactly NumCmpFilter's formulas: Compare(NaN, y) == 0 in the row
/// oracle, so NaN must satisfy kLe/kGe/kEq and fail kLt/kGt/kNe.
template <CmpKind K>
inline bool NumPred(double x, double y) {
  if constexpr (K == CmpKind::kLt) return x < y;
  if constexpr (K == CmpKind::kLe) return !(x > y);
  if constexpr (K == CmpKind::kGt) return x > y;
  if constexpr (K == CmpKind::kGe) return !(x < y);
  if constexpr (K == CmpKind::kEq) return !(x < y) && !(x > y);
  if constexpr (K == CmpKind::kNe) return (x < y) || (x > y);
}

/// Pre-resolved operands of a specialized conjunct. Only the members the
/// chosen kernel template reads are populated.
struct FastArgs {
  const int64_t* ivals = nullptr;   // numeric: int column payload
  const double* dvals = nullptr;    // numeric: double column payload
  double lit = 0.0;                 // numeric: rhs literal
  const uint32_t* codes = nullptr;  // string: dictionary codes
  uint32_t lb = 0, ub = 0;          // string: [lower, upper) of the literal
};

/// Dense form: selects from the contiguous row range [begin, end) into
/// `out` (capacity >= end - begin); returns the number selected.
using DenseFn = size_t (*)(const FastArgs&, const uint32_t* ids,
                           uint32_t begin, uint32_t end, uint32_t* out);
/// Select form: filters the survivor list sel[0..n) into `out`
/// (capacity >= n); returns the number selected.
using SelectFn = size_t (*)(const FastArgs&, const uint32_t* ids,
                            const uint32_t* sel, size_t n, uint32_t* out);

template <typename T>
inline const T* NumPayload(const FastArgs& a);
template <>
inline const int64_t* NumPayload<int64_t>(const FastArgs& a) {
  return a.ivals;
}
template <>
inline const double* NumPayload<double>(const FastArgs& a) {
  return a.dvals;
}

/// `Indirect` distinguishes a bare scan (relation row == physical row; the
/// loop reads the payload contiguously) from a re-indexed one (private
/// include_rows; one gather through `ids`).
template <typename T, CmpKind K, bool Indirect>
size_t DenseNumKernel(const FastArgs& a, const uint32_t* ids, uint32_t begin,
                      uint32_t end, uint32_t* out) {
  const T* vals = NumPayload<T>(a);
  const double y = a.lit;
  size_t k = 0;
  for (uint32_t i = begin; i < end; ++i) {
    const uint32_t r = Indirect ? ids[i] : i;
    out[k] = i;
    k += NumPred<K>(static_cast<double>(vals[r]), y) ? 1 : 0;
  }
  return k;
}

template <typename T, CmpKind K, bool Indirect>
size_t SelectNumKernel(const FastArgs& a, const uint32_t* ids,
                       const uint32_t* sel, size_t n, uint32_t* out) {
  const T* vals = NumPayload<T>(a);
  const double y = a.lit;
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t p = sel[i];
    const uint32_t r = Indirect ? ids[p] : p;
    out[k] = p;
    k += NumPred<K>(static_cast<double>(vals[r]), y) ? 1 : 0;
  }
  return k;
}

/// StringCmpFilter's kColLit comparisons against the pre-resolved code
/// range. The dictionary is sorted and duplicate-free, so found ⇔ lb < ub
/// and an existing literal's own code is exactly lb.
template <CmpKind K>
inline bool CodePred(uint32_t c, uint32_t lb, uint32_t ub) {
  if constexpr (K == CmpKind::kLt) return c < lb;
  if constexpr (K == CmpKind::kLe) return c < ub;
  if constexpr (K == CmpKind::kGt) return c >= ub;
  if constexpr (K == CmpKind::kGe) return c >= lb;
  if constexpr (K == CmpKind::kEq) return lb < ub && c == lb;
  if constexpr (K == CmpKind::kNe) return lb >= ub || c != lb;
}

template <CmpKind K, bool Indirect>
size_t DenseStrKernel(const FastArgs& a, const uint32_t* ids, uint32_t begin,
                      uint32_t end, uint32_t* out) {
  const uint32_t* codes = a.codes;
  const uint32_t lb = a.lb, ub = a.ub;
  size_t k = 0;
  for (uint32_t i = begin; i < end; ++i) {
    const uint32_t r = Indirect ? ids[i] : i;
    out[k] = i;
    k += CodePred<K>(codes[r], lb, ub) ? 1 : 0;
  }
  return k;
}

template <CmpKind K, bool Indirect>
size_t SelectStrKernel(const FastArgs& a, const uint32_t* ids,
                       const uint32_t* sel, size_t n, uint32_t* out) {
  const uint32_t* codes = a.codes;
  const uint32_t lb = a.lb, ub = a.ub;
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t p = sel[i];
    const uint32_t r = Indirect ? ids[p] : p;
    out[k] = p;
    k += CodePred<K>(codes[r], lb, ub) ? 1 : 0;
  }
  return k;
}

struct KernelPair {
  DenseFn dense = nullptr;
  SelectFn select = nullptr;
};

template <typename T, bool Indirect>
KernelPair NumKernelsFor(CmpKind k) {
  switch (k) {
    case CmpKind::kLt:
      return {&DenseNumKernel<T, CmpKind::kLt, Indirect>,
              &SelectNumKernel<T, CmpKind::kLt, Indirect>};
    case CmpKind::kLe:
      return {&DenseNumKernel<T, CmpKind::kLe, Indirect>,
              &SelectNumKernel<T, CmpKind::kLe, Indirect>};
    case CmpKind::kGt:
      return {&DenseNumKernel<T, CmpKind::kGt, Indirect>,
              &SelectNumKernel<T, CmpKind::kGt, Indirect>};
    case CmpKind::kGe:
      return {&DenseNumKernel<T, CmpKind::kGe, Indirect>,
              &SelectNumKernel<T, CmpKind::kGe, Indirect>};
    case CmpKind::kEq:
      return {&DenseNumKernel<T, CmpKind::kEq, Indirect>,
              &SelectNumKernel<T, CmpKind::kEq, Indirect>};
    case CmpKind::kNe:
      return {&DenseNumKernel<T, CmpKind::kNe, Indirect>,
              &SelectNumKernel<T, CmpKind::kNe, Indirect>};
  }
  return {};
}

template <bool Indirect>
KernelPair StrKernelsFor(CmpKind k) {
  switch (k) {
    case CmpKind::kLt:
      return {&DenseStrKernel<CmpKind::kLt, Indirect>,
              &SelectStrKernel<CmpKind::kLt, Indirect>};
    case CmpKind::kLe:
      return {&DenseStrKernel<CmpKind::kLe, Indirect>,
              &SelectStrKernel<CmpKind::kLe, Indirect>};
    case CmpKind::kGt:
      return {&DenseStrKernel<CmpKind::kGt, Indirect>,
              &SelectStrKernel<CmpKind::kGt, Indirect>};
    case CmpKind::kGe:
      return {&DenseStrKernel<CmpKind::kGe, Indirect>,
              &SelectStrKernel<CmpKind::kGe, Indirect>};
    case CmpKind::kEq:
      return {&DenseStrKernel<CmpKind::kEq, Indirect>,
              &SelectStrKernel<CmpKind::kEq, Indirect>};
    case CmpKind::kNe:
      return {&DenseStrKernel<CmpKind::kNe, Indirect>,
              &SelectStrKernel<CmpKind::kNe, Indirect>};
  }
  return {};
}

bool IsComparisonOp(BinOp op) {
  switch (op) {
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
      return true;
    default:
      return false;
  }
}

BinOp MirrorCmp(BinOp op) {
  switch (op) {
    case BinOp::kLt: return BinOp::kGt;
    case BinOp::kLe: return BinOp::kGe;
    case BinOp::kGt: return BinOp::kLt;
    case BinOp::kGe: return BinOp::kLe;
    default: return op;  // kEq / kNe are symmetric
  }
}

/// One filter node of the fused chain: a compiled predicate (always — the
/// specialization reads it and the fallback runs it) plus, when the shape
/// matched, the specialized kernel pair. A null `dense` means the conjunct
/// runs on the interpreted FilterKernel — same code, same aborts, just
/// with the survivor list materialized.
struct FusedConjunct {
  CompiledExpr pred;
  DenseFn dense = nullptr;
  SelectFn select = nullptr;
  FastArgs args;
};

template <bool Indirect>
FusedConjunct CompileConjunct(const ExprPtr& expr, const Schema& schema,
                              const std::vector<const Column*>& columns) {
  FusedConjunct out;
  out.pred = CompileExpr(expr, schema, columns);
  const CompiledExpr& e = out.pred;
  if (e.kind != Expr::Kind::kBinary || !IsComparisonOp(e.op) || e.mixed_cmp) {
    return out;
  }
  if (e.str_cmp) {
    // CompileExpr normalizes "lit op col" to "col MirrorOp(op) lit", so
    // kColLit always has the column on the lhs and [lb, ub) resolved.
    if (e.str_form != CompiledExpr::StrForm::kColLit) return out;
    const Column* col = columns[e.lhs->col_pos];
    out.args.codes = col->codes.data();
    out.args.lb = e.lit_lb;
    out.args.ub = e.lit_ub;
    KernelPair k = StrKernelsFor<Indirect>(CmpKindOf(e.op));
    out.dense = k.dense;
    out.select = k.select;
    return out;
  }
  // Numeric column vs numeric literal, either operand order (numeric
  // comparisons are not normalized at compile time; mirror like CmpFilter
  // does at run time).
  const CompiledExpr* ce = nullptr;
  const CompiledExpr* le = nullptr;
  BinOp op = e.op;
  if (e.lhs->kind == Expr::Kind::kColumn &&
      e.rhs->kind == Expr::Kind::kLiteral) {
    ce = e.lhs.get();
    le = e.rhs.get();
  } else if (e.lhs->kind == Expr::Kind::kLiteral &&
             e.rhs->kind == Expr::Kind::kColumn) {
    ce = e.rhs.get();
    le = e.lhs.get();
    op = MirrorCmp(op);
  } else {
    return out;
  }
  const Column* col = columns[ce->col_pos];
  out.args.lit = le->num_lit;
  KernelPair k;
  if (col->type == ValueType::kInt) {
    out.args.ivals = col->ints.data();
    k = NumKernelsFor<int64_t, Indirect>(CmpKindOf(op));
  } else {
    out.args.dvals = col->doubles.data();
    k = NumKernelsFor<double, Indirect>(CmpKindOf(op));
  }
  out.dense = k.dense;
  out.select = k.select;
  return out;
}

// ---------------------------------------------------------------------------
// Weight (aggregate expression) forms
// ---------------------------------------------------------------------------

/// Reads one physical cell as double, promoting ints exactly like
/// ProjectKernel's column loop.
struct ColReader {
  const int64_t* ints = nullptr;
  const double* dbls = nullptr;

  static ColReader For(const Column* col) {
    ColReader r;
    if (col->type == ValueType::kInt) {
      r.ints = col->ints.data();
    } else {
      r.dbls = col->doubles.data();
    }
    return r;
  }
  double Get(uint32_t row) const {
    return ints != nullptr ? static_cast<double>(ints[row]) : dbls[row];
  }
};

/// The specialized weight shapes: a bare numeric column, a product of two
/// numeric columns (TPC-H Q6's l_extendedprice * l_discount), and column
/// times literal. Everything else — including any shape that can abort
/// (string operands, division) — runs the interpreted ProjectKernel on
/// the survivors, preserving abort messages and laziness.
struct WeightPlan {
  enum class Form { kNone, kCol, kMulColCol, kMulColLit, kGeneric };
  Form form = Form::kNone;
  ColReader a, b;
  double lit = 0.0;
  CompiledExpr expr;  // always compiled; the kGeneric evaluator
};

WeightPlan CompileWeight(const ExprPtr& expr, const Schema& schema,
                         const std::vector<const Column*>& columns) {
  WeightPlan out;
  out.expr = CompileExpr(expr, schema, columns);
  const CompiledExpr& e = out.expr;
  auto numeric_col = [&](const CompiledExpr& c) {
    return c.kind == Expr::Kind::kColumn && c.col_type != ValueType::kString;
  };
  auto numeric_lit = [](const CompiledExpr& c) {
    return c.kind == Expr::Kind::kLiteral && !c.is_string;
  };
  if (numeric_col(e)) {
    out.form = WeightPlan::Form::kCol;
    out.a = ColReader::For(columns[e.col_pos]);
    return out;
  }
  if (e.kind == Expr::Kind::kBinary && e.op == BinOp::kMul) {
    const CompiledExpr& l = *e.lhs;
    const CompiledExpr& r = *e.rhs;
    if (numeric_col(l) && numeric_col(r)) {
      out.form = WeightPlan::Form::kMulColCol;
      out.a = ColReader::For(columns[l.col_pos]);
      out.b = ColReader::For(columns[r.col_pos]);
      return out;
    }
    // IEEE multiplication commutes bit-for-bit, so both operand orders
    // reduce to col * lit.
    if (numeric_col(l) && numeric_lit(r)) {
      out.form = WeightPlan::Form::kMulColLit;
      out.a = ColReader::For(columns[l.col_pos]);
      out.lit = r.num_lit;
      return out;
    }
    if (numeric_lit(l) && numeric_col(r)) {
      out.form = WeightPlan::Form::kMulColLit;
      out.a = ColReader::For(columns[r.col_pos]);
      out.lit = l.num_lit;
      return out;
    }
  }
  out.form = WeightPlan::Form::kGeneric;
  return out;
}

// ---------------------------------------------------------------------------
// Accumulation
// ---------------------------------------------------------------------------

/// Everything the per-batch loop needs, fixed per query.
struct FusedQuery {
  std::vector<FusedConjunct> chain;
  WeightPlan weight;
  bool need_expr = false;   // false: Count — no weight evaluation at all
  bool need_sum = false;    // Sum/Avg read the exact total; Min/Max don't
  bool minmax = false;      // Avg/Min/Max: track running min/max
  const uint32_t* ids = nullptr;  // relation position -> physical row
  size_t parts = 0;
  // The one provenance pass: the scan is the private table, so ids are
  // the provenance.
  const SamplePass* sample = nullptr;
  BatchInput in;  // fallback kernels' column bindings
};

/// Folds survivors into `acc`. `getw(i, pos)` returns the weight of the
/// i-th survivor at relation position pos; Dense selects the contiguous
/// [begin, begin+m) enumeration (no materialized selection at all).
template <bool Dense, typename GetW>
void AccumulateInto(const FusedQuery& q, BatchAcc& acc, const uint32_t* sel,
                    uint32_t begin, size_t m, GetW getw) {
  const uint32_t* prov = q.sample != nullptr ? q.ids : nullptr;
  for (size_t i = 0; i < m; ++i) {
    const uint32_t pos = Dense ? begin + static_cast<uint32_t>(i) : sel[i];
    const double w = getw(i, pos);
    if (q.need_sum) acc.sum.Add(w);
    if (q.minmax) {
      acc.mn = w < acc.mn ? w : acc.mn;  // == std::min(mn, w)
      acc.mx = w > acc.mx ? w : acc.mx;  // == std::max(mx, w)
    }
    if (prov == nullptr) continue;
    const uint32_t r = prov[pos];
    if (q.sample->Contains(r)) {
      acc.hits.push_back({r, w});
    } else {
      acc.parts[r % q.parts].Add(w);
    }
  }
}

/// Scratch buffers reused across one morsel's batches.
struct Scratch {
  SelVector cur, nxt, iota;
  std::vector<double> wbuf;
};

/// Runs one batch end to end: conjunct chain with short-circuit selection,
/// then accumulation of the survivors.
void ProcessBatch(const FusedQuery& q, uint32_t begin, uint32_t end,
                  BatchAcc& acc, Scratch& s) {
  const size_t full = end - begin;
  bool dense = true;
  size_t m = full;
  for (size_t ci = 0; ci < q.chain.size(); ++ci) {
    const FusedConjunct& c = q.chain[ci];
    if (dense) {
      if (c.dense != nullptr) {
        s.cur.resize(full);
        m = c.dense(c.args, q.ids, begin, end, s.cur.data());
      } else {
        s.iota.resize(full);
        std::iota(s.iota.begin(), s.iota.end(), begin);
        s.cur.clear();
        FilterKernel(c.pred, q.in, s.iota.data(), full, s.cur);
        m = s.cur.size();
      }
      dense = false;
      continue;
    }
    // An empty survivor set makes every remaining conjunct (and the
    // aggregate) a no-op in the interpreted path too — kernels only
    // abort when at least one row is evaluated — so breaking here is
    // abort-equivalent, not just result-equivalent.
    if (m == 0) break;
    if (c.select != nullptr) {
      s.nxt.resize(m);
      const size_t k = c.select(c.args, q.ids, s.cur.data(), m, s.nxt.data());
      s.nxt.resize(k);
    } else {
      s.nxt.clear();
      FilterKernel(c.pred, q.in, s.cur.data(), m, s.nxt);
    }
    s.cur.swap(s.nxt);
    m = s.cur.size();
  }
  if (m == 0) return;
  acc.rows += m;

  const uint32_t* sel = dense ? nullptr : s.cur.data();
  if (!q.need_expr) {
    // Count: the total is the row count (FinishAggregate); only the one
    // pass needs the per-row loop.
    if (q.sample != nullptr) {
      auto one = [](size_t, uint32_t) { return 1.0; };
      if (dense) {
        AccumulateInto<true>(q, acc, sel, begin, m, one);
      } else {
        AccumulateInto<false>(q, acc, sel, begin, m, one);
      }
    }
    return;
  }

  const WeightPlan& wp = q.weight;
  const uint32_t* ids = q.ids;
  switch (wp.form) {
    case WeightPlan::Form::kCol: {
      auto getw = [&](size_t, uint32_t pos) { return wp.a.Get(ids[pos]); };
      if (dense) {
        AccumulateInto<true>(q, acc, sel, begin, m, getw);
      } else {
        AccumulateInto<false>(q, acc, sel, begin, m, getw);
      }
      return;
    }
    case WeightPlan::Form::kMulColCol: {
      auto getw = [&](size_t, uint32_t pos) {
        const uint32_t r = ids[pos];
        return wp.a.Get(r) * wp.b.Get(r);
      };
      if (dense) {
        AccumulateInto<true>(q, acc, sel, begin, m, getw);
      } else {
        AccumulateInto<false>(q, acc, sel, begin, m, getw);
      }
      return;
    }
    case WeightPlan::Form::kMulColLit: {
      auto getw = [&](size_t, uint32_t pos) {
        return wp.a.Get(ids[pos]) * wp.lit;
      };
      if (dense) {
        AccumulateInto<true>(q, acc, sel, begin, m, getw);
      } else {
        AccumulateInto<false>(q, acc, sel, begin, m, getw);
      }
      return;
    }
    default: {  // kGeneric: interpreted projection over the survivors
      if (dense) {
        s.iota.resize(m);
        std::iota(s.iota.begin(), s.iota.end(), begin);
        sel = s.iota.data();
      }
      s.wbuf.resize(m);
      ProjectKernel(wp.expr, q.in, sel, m, s.wbuf.data());
      const double* w = s.wbuf.data();
      auto getw = [&](size_t i, uint32_t) { return w[i]; };
      AccumulateInto<false>(q, acc, sel, begin, m, getw);
      return;
    }
  }
}

}  // namespace

std::optional<FusedShape> FusableShape(const PlanPtr& plan) {
  if (plan == nullptr || plan->kind != PlanKind::kAggregate) {
    return std::nullopt;
  }
  FusedShape shape;
  PlanPtr node = plan->left;
  while (node != nullptr && node->kind == PlanKind::kFilter) {
    shape.conjuncts.push_back(node->predicate);
    node = node->left;
  }
  if (node == nullptr || node->kind != PlanKind::kScan) return std::nullopt;
  // Collected outermost-first; the engine evaluates innermost-first.
  std::reverse(shape.conjuncts.begin(), shape.conjuncts.end());
  shape.table = node->table;
  return shape;
}

Result<ExecResult> ExecuteFused(engine::ExecContext* ctx,
                                const Catalog* catalog, const PlanPtr& plan,
                                const FusedShape& shape,
                                const ExecOptions& options) {
  Result<ScanBinding> bindr =
      BindScanSource(ctx, catalog, shape.table, options);
  if (!bindr.ok()) return bindr.status();
  const ScanBinding bind = std::move(bindr).value();
  const ColumnarTable& table = *bind.table;
  const Schema& schema = table.schema();

  // Status checks in the interpreted engine's order: filter references
  // (innermost first, while evaluating up the chain), then the aggregate's.
  for (const ExprPtr& c : shape.conjuncts) {
    if (!ExprColumnsExist(c, schema)) {
      return Status::InvalidArgument("filter references unknown column in " +
                                     c->ToString());
    }
  }
  UPA_RETURN_IF_ERROR(CheckAggregate(plan, schema, options));

  std::vector<const Column*> cols(schema.NumColumns());
  for (size_t i = 0; i < cols.size(); ++i) cols[i] = &table.column(i);
  const bool bare = bind.row_ids == table.identity();
  const uint32_t* ids = bind.row_ids->data();
  const size_t n = bind.row_ids->size();

  // The one provenance pass scans the identity (a bare scan), so it runs
  // the dense conjunct kernels.
  std::optional<SamplePass> sample;
  if (options.sample_rows != nullptr) {
    sample.emplace(*options.sample_rows, options.partitions);
  }

  FusedQuery q;
  q.ids = ids;
  q.parts = options.partitions;
  q.sample = sample.has_value() ? &*sample : nullptr;
  q.need_expr = plan->agg != AggKind::kCount;
  // The one pass folds its total from the partition and slot sums.
  q.need_sum = !sample.has_value() &&
               (plan->agg == AggKind::kSum || plan->agg == AggKind::kAvg);
  q.minmax = plan->agg != AggKind::kCount && plan->agg != AggKind::kSum;
  q.in.resize(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) q.in[i] = {cols[i], ids};
  q.chain.reserve(shape.conjuncts.size());
  for (const ExprPtr& c : shape.conjuncts) {
    q.chain.push_back(bare ? CompileConjunct<false>(c, schema, cols)
                           : CompileConjunct<true>(c, schema, cols));
  }
  if (q.need_expr) q.weight = CompileWeight(plan->agg_expr, schema, cols);

  const size_t nb = NumBatches(n);
  std::vector<BatchAcc> accs(nb);
  for (BatchAcc& a : accs) a.parts.resize(q.sample != nullptr ? q.parts : 0);
  MorselRun(ctx, "columnar/fused", nb, 0, [&](size_t b0, size_t b1) {
    Scratch s;
    for (size_t b = b0; b < b1; ++b) {
      const size_t begin = b * kBatch, end = std::min(n, begin + kBatch);
      ProcessBatch(q, static_cast<uint32_t>(begin), static_cast<uint32_t>(end),
                   accs[b], s);
    }
  });
  ctx->metrics().AddKernelBatches(nb);
  ctx->metrics().AddKernelRows(n);
  return FinishAggregate(ctx, plan->agg, accs,
                         sample.has_value() ? &*sample : nullptr);
}

}  // namespace upa::rel
