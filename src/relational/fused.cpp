#include "relational/fused.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/hash.h"
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
// Chains and accumulation
// ---------------------------------------------------------------------------

std::vector<const Column*> TableColumns(const ColumnarTable& table) {
  std::vector<const Column*> cols(table.schema().NumColumns());
  for (size_t i = 0; i < cols.size(); ++i) cols[i] = &table.column(i);
  return cols;
}

/// A compiled Filter*(Scan) chain: its conjuncts and what their kernels
/// read.
struct CompiledChain {
  std::vector<FusedConjunct> conjuncts;
  const uint32_t* ids = nullptr;  // relation position -> physical row
  BatchInput in;                  // fallback kernels' column bindings
};

CompiledChain CompileChain(const std::vector<ExprPtr>& conjuncts,
                           const ScanBinding& bind) {
  const ColumnarTable& table = *bind.table;
  const Schema& schema = table.schema();
  const std::vector<const Column*> cols = TableColumns(table);
  CompiledChain out;
  out.ids = bind.row_ids->data();
  out.in.resize(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) out.in[i] = {cols[i], out.ids};
  // A bare scan reads its payloads contiguously; the one provenance pass
  // scans the identity, so it runs the dense kernels too.
  const bool bare = bind.row_ids == table.identity();
  out.conjuncts.reserve(conjuncts.size());
  for (const ExprPtr& c : conjuncts) {
    out.conjuncts.push_back(bare ? CompileConjunct<false>(c, schema, cols)
                                 : CompileConjunct<true>(c, schema, cols));
  }
  return out;
}

/// Where each weight goes, fixed per query: the exact sum (Sum/Avg outside
/// the one pass), the running min/max (Avg/Min/Max), and in the one pass
/// the slot of its sampled record or the sum of its partition.
struct Fold {
  bool need_sum = false;
  bool minmax = false;
  size_t parts = 0;
  const SamplePass* sample = nullptr;

  Fold() = default;
  Fold(AggKind agg, const SamplePass* pass, size_t partitions)
      : need_sum(pass == nullptr &&
                 (agg == AggKind::kSum || agg == AggKind::kAvg)),
        minmax(agg != AggKind::kCount && agg != AggKind::kSum),
        parts(partitions),
        sample(pass) {}

  /// `prov` is the private base row the weighted row descends from; only
  /// the one pass reads it. Forced inline: it runs once per row, and as a
  /// call it cost a dense one-pass SUM ~15%.
  [[gnu::always_inline]] void Add(BatchAcc& acc, double w,
                                  uint32_t prov) const {
    if (minmax) {
      acc.mn = w < acc.mn ? w : acc.mn;  // == std::min(mn, w)
      acc.mx = w > acc.mx ? w : acc.mx;  // == std::max(mx, w)
    }
    // One exact add site: the plain sum and the partition sums never
    // both take a weight.
    ExactSum* to = need_sum ? &acc.sum : nullptr;
    if (sample != nullptr) {
      if (sample->Contains(prov)) {
        acc.hits.push_back({prov, w});
      } else {
        to = &acc.parts[prov % parts];
      }
    }
    if (to != nullptr) to->Add(w);
  }
};

/// Scratch buffers reused across one morsel's batches.
struct Scratch {
  SelVector cur, nxt, iota;
  std::vector<double> wbuf;
  // A join's matched pairs (physical probe and build rows) and the joined
  // columns bound to them.
  SelVector prow, brow;
  BatchInput pairs;
};

/// Runs `chain` over relation rows [begin, end) with short-circuit
/// selection and returns the survivor count. `dense` comes back true iff
/// no conjunct ran (every row survives and nothing was selected);
/// otherwise the survivors are s.cur[0..m).
size_t RunChain(const CompiledChain& chain, uint32_t begin, uint32_t end,
                Scratch& s, bool& dense) {
  const size_t full = end - begin;
  dense = true;
  size_t m = full;
  for (const FusedConjunct& c : chain.conjuncts) {
    if (dense) {
      if (c.dense != nullptr) {
        s.cur.resize(full);
        m = c.dense(c.args, chain.ids, begin, end, s.cur.data());
      } else {
        s.iota.resize(full);
        std::iota(s.iota.begin(), s.iota.end(), begin);
        s.cur.clear();
        FilterKernel(c.pred, chain.in, s.iota.data(), full, s.cur);
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
      const size_t k =
          c.select(c.args, chain.ids, s.cur.data(), m, s.nxt.data());
      s.nxt.resize(k);
    } else {
      s.nxt.clear();
      FilterKernel(c.pred, chain.in, s.cur.data(), m, s.nxt);
    }
    s.cur.swap(s.nxt);
    m = s.cur.size();
  }
  return m;
}

/// Everything a single-chain query's per-batch loop needs, fixed per query.
struct FusedQuery {
  CompiledChain chain;
  WeightPlan weight;
  bool need_expr = false;  // false: Count — no weight evaluation at all
  Fold fold;
};

/// Folds survivors into `acc`. `getw(i, pos)` returns the weight of the
/// i-th survivor at relation position pos; Dense selects the contiguous
/// [begin, begin+m) enumeration (no materialized selection at all).
template <bool Dense, typename GetW>
void AccumulateInto(const FusedQuery& q, BatchAcc& acc, const uint32_t* sel,
                    uint32_t begin, size_t m, GetW getw) {
  // Locals, not reads through `q`: stores into `acc` might alias those, so
  // the loop would reload them for every row.
  const Fold fold = q.fold;
  const uint32_t* ids = q.chain.ids;
  for (size_t i = 0; i < m; ++i) {
    const uint32_t pos = Dense ? begin + static_cast<uint32_t>(i) : sel[i];
    fold.Add(acc, getw(i, pos), ids[pos]);
  }
}

/// Runs one batch end to end: conjunct chain with short-circuit selection,
/// then accumulation of the survivors.
void ProcessBatch(const FusedQuery& q, uint32_t begin, uint32_t end,
                  BatchAcc& acc, Scratch& s) {
  bool dense = true;
  const size_t m = RunChain(q.chain, begin, end, s, dense);
  if (m == 0) return;
  acc.rows += m;

  const uint32_t* sel = dense ? nullptr : s.cur.data();
  if (!q.need_expr) {
    // Count: the total is the row count (FinishAggregate); only the one
    // pass needs the per-row loop.
    if (q.fold.sample != nullptr) {
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
  const uint32_t* ids = q.chain.ids;
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
      ProjectKernel(wp.expr, q.chain.in, sel, m, s.wbuf.data());
      const double* w = s.wbuf.data();
      auto getw = [&](size_t i, uint32_t) { return w[i]; };
      AccumulateInto<false>(q, acc, sel, begin, m, getw);
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

/// Block-cache tag of a join build. Distinct from columnar.cpp's scan and
/// subtree tags: the cache is type-erased, so one key must never map to
/// differently-typed entries.
constexpr uint64_t kJoinBuildTag = 0xc01b'0170ULL;

/// Batches per build morsel. A build of up to 16k rows (TPC-H orders at
/// 10k orders) is one morsel on the calling thread, since waking the pool
/// costs more than filtering it; a larger one still spreads over the pool.
constexpr size_t kBuildGrain = 4;

/// A join's build side: the JoinTable over the keys of its surviving rows,
/// and each entry's physical row (ascending: the build side is a public
/// scan, bound to the identity).
struct JoinBuild {
  JoinTable table;
  SelVector rows;
};

JoinBuild BuildJoin(engine::ExecContext* ctx, const CompiledChain& chain,
                    size_t n, const int64_t* keys) {
  const size_t nb = NumBatches(n);
  std::vector<SelVector> hits(nb);
  MorselRun(ctx, "columnar/join_build", nb, kBuildGrain,
            [&](size_t b0, size_t b1) {
              Scratch s;
              for (size_t b = b0; b < b1; ++b) {
                const size_t begin = b * kBatch,
                             end = std::min(n, begin + kBatch);
                bool dense = true;
                const size_t m = RunChain(chain, static_cast<uint32_t>(begin),
                                          static_cast<uint32_t>(end), s, dense);
                if (dense) {
                  hits[b].resize(m);
                  std::iota(hits[b].begin(), hits[b].end(),
                            static_cast<uint32_t>(begin));
                } else {
                  hits[b].assign(s.cur.begin(), s.cur.begin() + m);
                }
              }
            });
  ctx->metrics().AddKernelBatches(nb);
  ctx->metrics().AddKernelRows(n);
  size_t total = 0;
  for (const SelVector& h : hits) total += h.size();
  JoinBuild build;
  build.rows.reserve(total);
  std::vector<int64_t> bkeys;
  bkeys.reserve(total);
  for (const SelVector& h : hits) {
    for (uint32_t pos : h) {
      const uint32_t r = chain.ids[pos];
      build.rows.push_back(r);
      bkeys.push_back(keys[r]);
    }
  }
  build.table = JoinTable(bkeys);
  return build;
}

/// Everything a join's probe loop needs, fixed per query.
struct JoinQuery {
  CompiledChain probe;
  const int64_t* keys = nullptr;  // the probe side's key column
  const JoinBuild* build = nullptr;
  bool need_expr = false;  // false: Count — 1.0 per match
  // The weight, compiled against the joined schema; that schema's columns,
  // and which of them the build side holds. Their row ids are bound per
  // batch to its matched pairs.
  CompiledExpr weight;
  BatchInput pairs;
  std::vector<bool> from_build;
  Fold fold;
};

/// Count: the total is the match count (FinishAggregate); only the one
/// pass (Sampled) folds 1.0 per match. Outside it a fold of a count does
/// nothing, yet as a per-match step it cost a plain join COUNT ~50%.
template <bool Dense, bool Sampled>
void CountMatches(const JoinQuery& q, const uint32_t* sel, uint32_t begin,
                  size_t m, BatchAcc& acc) {
  // Locals, as in AccumulateInto.
  const Fold fold = q.fold;
  const uint32_t* ids = q.probe.ids;
  const int64_t* keys = q.keys;
  const JoinTable& t = q.build->table;
  size_t rows = 0;
  for (size_t i = 0; i < m; ++i) {
    const uint32_t r = ids[Dense ? begin + static_cast<uint32_t>(i) : sel[i]];
    for (uint32_t e = t.Find(keys[r]); e != JoinTable::kEnd; e = t.Next(e)) {
      ++rows;
      if constexpr (Sampled) fold.Add(acc, 1.0, r);
    }
  }
  acc.rows += rows;
}

/// Projects the weight over every matched pair of the survivors, then
/// folds it.
template <bool Dense>
void FoldPairs(const JoinQuery& q, const uint32_t* sel, uint32_t begin,
               size_t m, BatchAcc& acc, Scratch& s) {
  const JoinTable& t = q.build->table;
  s.prow.clear();
  s.brow.clear();
  for (size_t i = 0; i < m; ++i) {
    const uint32_t r =
        q.probe.ids[Dense ? begin + static_cast<uint32_t>(i) : sel[i]];
    for (uint32_t e = t.Find(q.keys[r]); e != JoinTable::kEnd;
         e = t.Next(e)) {
      s.prow.push_back(r);
      s.brow.push_back(q.build->rows[e]);
    }
  }
  const size_t k = s.prow.size();
  if (k == 0) return;
  for (size_t c = 0; c < s.pairs.size(); ++c) {
    s.pairs[c].row_ids = q.from_build[c] ? s.brow.data() : s.prow.data();
  }
  s.iota.resize(k);
  std::iota(s.iota.begin(), s.iota.end(), 0u);
  s.wbuf.resize(k);
  ProjectKernel(q.weight, s.pairs, s.iota.data(), k, s.wbuf.data());
  acc.rows += k;
  const Fold fold = q.fold;
  for (size_t j = 0; j < k; ++j) fold.Add(acc, s.wbuf[j], s.prow[j]);
}

/// Runs one probe batch: the probe chain, then each survivor's matches.
/// Returns the chain's survivor count.
size_t ProbeBatch(const JoinQuery& q, uint32_t begin, uint32_t end,
                  BatchAcc& acc, Scratch& s) {
  bool dense = true;
  const size_t m = RunChain(q.probe, begin, end, s, dense);
  if (m == 0 || q.build->table.size() == 0) return m;
  const uint32_t* sel = dense ? nullptr : s.cur.data();
  if (q.need_expr) {
    if (dense) {
      FoldPairs<true>(q, sel, begin, m, acc, s);
    } else {
      FoldPairs<false>(q, sel, begin, m, acc, s);
    }
  } else if (q.fold.sample != nullptr) {
    if (dense) {
      CountMatches<true, true>(q, sel, begin, m, acc);
    } else {
      CountMatches<false, true>(q, sel, begin, m, acc);
    }
  } else if (dense) {
    CountMatches<true, false>(q, sel, begin, m, acc);
  } else {
    CountMatches<false, false>(q, sel, begin, m, acc);
  }
  return m;
}

bool ColumnsExist(const std::vector<ExprPtr>& conjuncts,
                  const Schema& schema) {
  return std::all_of(conjuncts.begin(), conjuncts.end(),
                     [&](const ExprPtr& c) {
                       return ExprColumnsExist(c, schema);
                     });
}

/// True when a column name is on both sides (Schema::Concat aborts).
bool SharesAColumnName(const Schema& a, const Schema& b) {
  return std::any_of(a.columns().begin(), a.columns().end(),
                     [&](const ColumnDef& c) { return b.Has(c.name); });
}

Result<ExecResult> ExecuteFusedJoin(engine::ExecContext* ctx,
                                    const Catalog* catalog,
                                    const PlanPtr& plan,
                                    const FusedShape& shape,
                                    const ExecOptions& options) {
  const PlanNode& join = *shape.join;
  // What this path cannot resolve runs interpreted, which reports it (or,
  // for a non-integer key column over an empty side, joins nothing).
  auto interpreted = [&] {
    return ExecuteColumnarInterpreted(ctx, catalog, plan, options);
  };
  Result<ScanBinding> lbind =
      BindScanSource(ctx, catalog, shape.left.table, options);
  if (!lbind.ok()) return interpreted();
  Result<ScanBinding> rbind =
      BindScanSource(ctx, catalog, shape.right.table, options);
  if (!rbind.ok()) return interpreted();
  const ScanBinding& left = lbind.value();
  const ScanBinding& right = rbind.value();
  const Schema& ls = left.table->schema();
  const Schema& rs = right.table->schema();
  const std::optional<size_t> lk = ls.Find(join.left_key);
  const std::optional<size_t> rk = rs.Find(join.right_key);
  if (!ColumnsExist(shape.left.conjuncts, ls) ||
      !ColumnsExist(shape.right.conjuncts, rs) || !lk || !rk ||
      left.table->column(*lk).type != ValueType::kInt ||
      right.table->column(*rk).type != ValueType::kInt ||
      SharesAColumnName(ls, rs)) {
    return interpreted();
  }
  const bool need_expr = plan->agg != AggKind::kCount;
  const Schema joined = need_expr ? Schema::Concat(ls, rs) : Schema();
  if (!CheckAggregate(plan, joined, options).ok()) return interpreted();

  // Build the public side when the other is the private table (its rows
  // carry the provenance), else the hinted side, else the side with fewer
  // base rows.
  const bool build_left =
      left.is_private || right.is_private ? right.is_private
      : join.build_side != BuildSide::kAuto
          ? join.build_side == BuildSide::kLeft
          : left.table->num_rows() <= right.table->num_rows();
  const ScanBinding& bside = build_left ? left : right;
  const ScanBinding& pside = build_left ? right : left;
  const FusedChain& bchain = build_left ? shape.left : shape.right;
  const FusedChain& pchain = build_left ? shape.right : shape.left;
  const size_t bkey = build_left ? *lk : *rk;
  const size_t pkey = build_left ? *rk : *lk;

  // One build per release: the block cache hands a later pass the build an
  // earlier one made, as it does the interpreted path's public subtrees.
  const bool cacheable = options.cache != nullptr &&
                         !options.private_table.empty() && !bside.is_private;
  uint64_t key = 0;
  std::shared_ptr<const JoinBuild> build;
  if (cacheable) {
    key = HashCombine(PlanFingerprint(build_left ? join.left : join.right,
                                      *catalog),
                      Fnv1a(build_left ? join.left_key : join.right_key)) ^
          Mix64(kJoinBuildTag);
    build = options.cache->Get<JoinBuild>(key);
  }
  if (build == nullptr) {
    JoinBuild fresh =
        BuildJoin(ctx, CompileChain(bchain.conjuncts, bside),
                  bside.row_ids->size(), bside.table->column(bkey).ints.data());
    // A tripped token sheds build morsels: never probe or keep a partial
    // build.
    UPA_RETURN_IF_ERROR(CancelScope::CheckCurrent());
    build = cacheable ? options.cache->Put<JoinBuild>(key, std::move(fresh))
                      : std::make_shared<const JoinBuild>(std::move(fresh));
  }

  std::optional<SamplePass> sample;
  if (options.sample_rows != nullptr) {
    sample.emplace(*options.sample_rows, options.partitions);
  }
  JoinQuery q;
  q.probe = CompileChain(pchain.conjuncts, pside);
  q.keys = pside.table->column(pkey).ints.data();
  q.build = build.get();
  q.need_expr = need_expr;
  q.fold = Fold(plan->agg, sample.has_value() ? &*sample : nullptr,
                options.partitions);
  if (need_expr) {
    std::vector<const Column*> cols = TableColumns(*left.table);
    const std::vector<const Column*> rcols = TableColumns(*right.table);
    cols.insert(cols.end(), rcols.begin(), rcols.end());
    q.weight = CompileExpr(plan->agg_expr, joined, cols);
    const size_t lo = build_left ? 0 : ls.NumColumns();
    const size_t hi = build_left ? ls.NumColumns() : cols.size();
    q.pairs.resize(cols.size());
    q.from_build.resize(cols.size());
    for (size_t c = 0; c < cols.size(); ++c) {
      q.pairs[c] = {cols[c], nullptr};
      q.from_build[c] = c >= lo && c < hi;
    }
  }

  const size_t n = pside.row_ids->size();
  const size_t nb = NumBatches(n);
  std::vector<BatchAcc> accs(nb);
  for (BatchAcc& a : accs) a.parts.resize(sample.has_value() ? q.fold.parts : 0);
  std::vector<size_t> survivors(nb);
  MorselRun(ctx, "columnar/fused_join", nb, 0, [&](size_t b0, size_t b1) {
    Scratch s;
    s.pairs = q.pairs;
    for (size_t b = b0; b < b1; ++b) {
      const size_t begin = b * kBatch, end = std::min(n, begin + kBatch);
      survivors[b] = ProbeBatch(q, static_cast<uint32_t>(begin),
                                static_cast<uint32_t>(end), accs[b], s);
    }
  });
  ctx->metrics().AddKernelBatches(nb);
  ctx->metrics().AddKernelRows(n);
  // The interpreted join exchanges both filtered sides; count the same
  // rounds and records so overhead attribution stays engine-independent.
  const size_t nprobe =
      std::accumulate(survivors.begin(), survivors.end(), size_t{0});
  const size_t nleft = build_left ? build->rows.size() : nprobe;
  const size_t nright = build_left ? nprobe : build->rows.size();
  ctx->metrics().AddShuffleRound();
  ctx->metrics().AddShuffleRecords(nleft);
  ctx->metrics().AddShuffleRound();
  ctx->metrics().AddShuffleRecords(nright);

  return FinishAggregate(ctx, plan->agg, accs,
                         sample.has_value() ? &*sample : nullptr);
}

/// Matches Filter*(Scan) below `node`.
std::optional<FusedChain> MatchChain(PlanPtr node) {
  FusedChain chain;
  while (node != nullptr && node->kind == PlanKind::kFilter) {
    chain.conjuncts.push_back(node->predicate);
    node = node->left;
  }
  if (node == nullptr || node->kind != PlanKind::kScan) return std::nullopt;
  // Collected outermost-first; the engine evaluates innermost-first.
  std::reverse(chain.conjuncts.begin(), chain.conjuncts.end());
  chain.table = node->table;
  return chain;
}

}  // namespace

std::optional<FusedShape> FusableShape(const PlanPtr& plan) {
  if (plan == nullptr || plan->kind != PlanKind::kAggregate ||
      plan->left == nullptr) {
    return std::nullopt;
  }
  if (plan->left->kind != PlanKind::kJoin) {
    std::optional<FusedChain> chain = MatchChain(plan->left);
    if (!chain.has_value()) return std::nullopt;
    FusedShape shape;
    shape.left = std::move(*chain);
    return shape;
  }
  // Min and Max keep the first of tied weights, and +0.0 and -0.0 tie:
  // over a join the sign of a zero result follows the interpreted path's
  // pair order, so they run there.
  if (plan->agg == AggKind::kMin || plan->agg == AggKind::kMax) {
    return std::nullopt;
  }
  std::optional<FusedChain> left = MatchChain(plan->left->left);
  std::optional<FusedChain> right = MatchChain(plan->left->right);
  if (!left.has_value() || !right.has_value() || left->table == right->table) {
    return std::nullopt;
  }
  FusedShape shape;
  shape.left = std::move(*left);
  shape.right = std::move(*right);
  shape.join = plan->left;
  return shape;
}

Result<ExecResult> ExecuteFused(engine::ExecContext* ctx,
                                const Catalog* catalog, const PlanPtr& plan,
                                const FusedShape& shape,
                                const ExecOptions& options) {
  if (shape.join != nullptr) {
    return ExecuteFusedJoin(ctx, catalog, plan, shape, options);
  }
  Result<ScanBinding> bindr =
      BindScanSource(ctx, catalog, shape.left.table, options);
  if (!bindr.ok()) return bindr.status();
  const ScanBinding bind = std::move(bindr).value();
  const Schema& schema = bind.table->schema();

  // Status checks in the interpreted engine's order: filter references
  // (innermost first, while evaluating up the chain), then the aggregate's.
  for (const ExprPtr& c : shape.left.conjuncts) {
    if (!ExprColumnsExist(c, schema)) {
      return Status::InvalidArgument("filter references unknown column in " +
                                     c->ToString());
    }
  }
  UPA_RETURN_IF_ERROR(CheckAggregate(plan, schema, options));

  std::optional<SamplePass> sample;
  if (options.sample_rows != nullptr) {
    sample.emplace(*options.sample_rows, options.partitions);
  }
  FusedQuery q;
  q.chain = CompileChain(shape.left.conjuncts, bind);
  q.need_expr = plan->agg != AggKind::kCount;
  q.fold = Fold(plan->agg, sample.has_value() ? &*sample : nullptr,
                options.partitions);
  if (q.need_expr) {
    q.weight = CompileWeight(plan->agg_expr, schema, TableColumns(*bind.table));
  }

  const size_t n = bind.row_ids->size();
  const size_t nb = NumBatches(n);
  std::vector<BatchAcc> accs(nb);
  for (BatchAcc& a : accs) a.parts.resize(sample.has_value() ? q.fold.parts : 0);
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
