#include "relational/sql_exec.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "relational/optimizer.h"

namespace upa::rel {
namespace {

/// Cap on candidate groups (the cross product of per-key distinct values).
/// Exceeding it fails with RESOURCE_EXHAUSTED.
constexpr size_t kMaxGroups = 4096;

std::string AggRefName(size_t i) { return "$agg" + std::to_string(i); }

/// One scalar aggregate run: optimize, then execute.
Result<double> RunPlan(const PlanExecutor& executor, const Catalog& catalog,
                       const PlanPtr& plan, ExecEngine exec_engine) {
  ExecOptions options;
  options.engine = exec_engine;
  Result<ExecResult> run = executor.Execute(Optimize(plan, catalog), options);
  if (!run.ok()) return run.status();
  return run.value().output;
}

double NumericOf(const Value& v) {
  if (std::holds_alternative<int64_t>(v)) {
    return static_cast<double>(std::get<int64_t>(v));
  }
  return std::get<double>(v);
}

}  // namespace

int TotalOrderCompare(const Value& a, const Value& b) {
  const bool a_str = std::holds_alternative<std::string>(a);
  const bool b_str = std::holds_alternative<std::string>(b);
  if (a_str != b_str) return a_str ? 1 : -1;  // numerics before strings
  if (a_str) {
    const std::string& x = std::get<std::string>(a);
    const std::string& y = std::get<std::string>(b);
    return x < y ? -1 : (y < x ? 1 : 0);
  }
  if (std::holds_alternative<int64_t>(a) &&
      std::holds_alternative<int64_t>(b)) {
    int64_t x = std::get<int64_t>(a), y = std::get<int64_t>(b);
    return x < y ? -1 : (y < x ? 1 : 0);
  }
  double x = NumericOf(a), y = NumericOf(b);
  const bool x_nan = std::isnan(x), y_nan = std::isnan(y);
  if (x_nan || y_nan) return x_nan == y_nan ? 0 : (x_nan ? 1 : -1);
  return x < y ? -1 : (x > y ? 1 : 0);
}

Result<SqlResultSet> ExecuteSelect(engine::ExecContext* ctx,
                                   const Catalog& catalog,
                                   const SqlSelect& stmt,
                                   ExecEngine exec_engine) {
  if (stmt.relation == nullptr) {
    return Status::InvalidArgument("statement has no FROM relation");
  }

  PlanExecutor executor(ctx, &catalog);

  // -- Candidate groups: cross product of per-key distinct values ----------
  // (first-appearance order per key, so output order is deterministic and
  // data-driven). Scalar queries get the single keyless group.
  std::vector<ColumnDef> group_defs;
  std::vector<Row> groups(1);
  for (const std::string& key : stmt.group_by) {
    std::string owner = OwningTable(stmt.relation, key, catalog);
    if (owner.empty()) {
      return Status::InvalidArgument("GROUP BY column '" + key +
                                     "' is not provided (or is ambiguous) "
                                     "in the FROM relation");
    }
    const Table* table = catalog.at(owner);
    const size_t col = table->schema().IndexOf(key);
    group_defs.push_back(table->schema().column(col));

    std::vector<Value> distinct;
    std::unordered_set<Value, ValueHash, ValueEq> seen;
    for (const Row& row : table->rows()) {
      if (seen.insert(row[col]).second) distinct.push_back(row[col]);
    }
    if (groups.size() * std::max<size_t>(distinct.size(), 1) > kMaxGroups) {
      return Status::ResourceExhausted(
          "candidate group count exceeds the cap of " +
          std::to_string(kMaxGroups) + "; add a WHERE clause or "
          "group by lower-cardinality columns");
    }
    std::vector<Row> expanded;
    expanded.reserve(groups.size() * distinct.size());
    for (const Row& g : groups) {
      for (const Value& v : distinct) {
        Row next = g;
        next.push_back(v);
        expanded.push_back(std::move(next));
      }
    }
    groups = std::move(expanded);
  }

  // -- Internal row schema: [group keys..., $agg0, $agg1, ...] -------------
  std::vector<ColumnDef> defs = group_defs;
  for (size_t i = 0; i < stmt.aggs.size(); ++i) {
    defs.push_back({AggRefName(i), ValueType::kDouble});
  }
  const Schema schema{defs};

  // -- Evaluate every aggregate slot per surviving group -------------------
  const bool grouped = !stmt.group_by.empty();
  std::vector<Row> group_rows;
  for (const Row& key_values : groups) {
    PlanPtr rel = stmt.relation;
    if (grouped) {
      ExprPtr pred;
      for (size_t k = 0; k < key_values.size(); ++k) {
        ExprPtr eq = Eq(Col(stmt.group_by[k]), Expr::Literal(key_values[k]));
        pred = pred ? And(std::move(pred), std::move(eq)) : std::move(eq);
      }
      rel = FilterPlan(rel, std::move(pred));
    }

    // Groups are formed from surviving rows: probe with COUNT(*) and drop
    // key combinations the relation never produces. The scalar (keyless)
    // "group" always emits its row — COUNT over an empty table is 0.
    double count = 0.0;
    bool have_count = false;
    if (grouped) {
      Result<double> probe =
          RunPlan(executor, catalog, CountPlan(rel), exec_engine);
      if (!probe.ok()) return probe.status();
      count = probe.value();
      have_count = true;
      if (count == 0.0) continue;
    }

    Row row = key_values;
    for (const AggSlot& slot : stmt.aggs) {
      if (slot.kind == AggKind::kCount && have_count) {
        row.push_back(Value{count});
        continue;
      }
      Result<double> out =
          RunPlan(executor, catalog, PlanForAgg(rel, slot), exec_engine);
      if (!out.ok()) return out.status();
      row.push_back(Value{out.value()});
    }
    group_rows.push_back(std::move(row));
  }

  // -- HAVING --------------------------------------------------------------
  if (stmt.having != nullptr) {
    auto keep = BindPredicate(stmt.having, schema);
    std::vector<Row> surviving;
    for (Row& row : group_rows) {
      if (keep(row)) surviving.push_back(std::move(row));
    }
    group_rows = std::move(surviving);
  }

  // -- ORDER BY (over the internal rows, before projection) ----------------
  std::vector<size_t> order(group_rows.size());
  std::iota(order.begin(), order.end(), 0);
  if (!stmt.order_by.empty()) {
    std::vector<std::vector<Value>> keys(group_rows.size());
    for (const OrderKey& key : stmt.order_by) {
      auto eval = Bind(key.expr, schema);
      for (size_t i = 0; i < group_rows.size(); ++i) {
        keys[i].push_back(eval(group_rows[i]));
      }
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (size_t k = 0; k < stmt.order_by.size(); ++k) {
        int c = TotalOrderCompare(keys[a][k], keys[b][k]);
        if (stmt.order_by[k].desc) c = -c;
        if (c != 0) return c < 0;
      }
      return false;  // stable_sort keeps group-enumeration order for ties
    });
  }

  // -- Project the select items -------------------------------------------
  SqlResultSet result;
  std::vector<BoundExpr> projections;
  for (const SelectItem& item : stmt.items) {
    result.columns.push_back(item.name);
    projections.push_back(Bind(item.expr, schema));
  }
  size_t n = group_rows.size();
  if (stmt.limit >= 0) n = std::min(n, static_cast<size_t>(stmt.limit));
  result.rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Row& src = group_rows[order[i]];
    Row out;
    out.reserve(projections.size());
    for (const BoundExpr& project : projections) out.push_back(project(src));
    result.rows.push_back(std::move(out));
  }
  return result;
}

Result<SqlResultSet> ExecuteSql(engine::ExecContext* ctx,
                                const Catalog& catalog,
                                const std::string& sql,
                                ExecEngine exec_engine) {
  Result<SqlSelect> stmt = ParseSqlSelect(sql);
  if (!stmt.ok()) return stmt.status();
  return ExecuteSelect(ctx, catalog, stmt.value(), exec_engine);
}

}  // namespace upa::rel
