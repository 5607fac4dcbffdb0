// Executes a parsed single-block SELECT (relational/sql_parser.h) on the
// engine and returns a result table.
//
// The engine itself only runs scalar kAggregate plans, so grouped queries
// are lowered by enumeration: for each GROUP BY key the owning table's
// distinct values are collected (first-appearance order), the cross
// product forms the candidate groups, and every hoisted aggregate slot
// runs as a scalar plan over Filter(relation, key = value AND ...). A
// COUNT(*) probe runs first per group and empty groups are dropped — SQL
// groups are formed from surviving rows, so a key value the WHERE clause
// eliminates never yields a row. HAVING / select items / ORDER BY are then
// plain expressions over [group keys..., $agg0, $agg1, ...] evaluated with
// the row-expression machinery (relational/expr.h).
//
// This is deliberately the simple, obviously-correct lowering: each scalar
// run reuses the whole engine (fused kernels, scan cache), and
// the per-group plans differ only in one pushed-down equality conjunct, so
// the public scan cache carries the shared work. The candidate-group cross
// product is capped (4096 groups) and overflow fails with
// RESOURCE_EXHAUSTED rather than running away.
//
// ExecuteSelect runs *public* queries, each plan through the cost-based
// optimizer: no provenance — the DP release path consumes single bare
// aggregates through ParseSql and the service layer instead.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "engine/context.h"
#include "relational/executor.h"
#include "relational/sql_parser.h"

namespace upa::rel {

/// A materialized query result: one column per select item (display names
/// from the item's alias or source text), one row per group — or exactly
/// one row for scalar (non-grouped) queries.
struct SqlResultSet {
  std::vector<std::string> columns;
  std::vector<Row> rows;
};

/// Executes a parsed SELECT, every scalar aggregate run on `exec_engine`.
/// See the file comment for the lowering.
Result<SqlResultSet> ExecuteSelect(
    engine::ExecContext* ctx, const Catalog& catalog, const SqlSelect& stmt,
    ExecEngine exec_engine = ExecEngine::kColumnar);

/// Parse + execute in one step.
Result<SqlResultSet> ExecuteSql(engine::ExecContext* ctx,
                                const Catalog& catalog,
                                const std::string& sql,
                                ExecEngine exec_engine = ExecEngine::kColumnar);

/// Total-order comparator over Values, safe for std::sort (unlike the
/// engine's Compare, whose NaN-equals-everything contract breaks strict
/// weak ordering). Numerics sort before strings, NaN after every number;
/// int/int compares exactly. Returns <0, 0, >0. Exposed for tests.
int TotalOrderCompare(const Value& a, const Value& b);

}  // namespace upa::rel
