// SQL console over the private TPC-H dataset: type a SQL aggregate, get an
// iDP-protected answer. Glues the whole stack together — SQL parser →
// logical plan → the multi-tenant UpaService (admission, budget,
// sensitivity cache) → UPA's pipeline (sampling, union-preserving reduce,
// RANGE ENFORCER, Laplace noise).
//
// Usage:
//   sql_console                          # run the built-in demo queries
//   sql_console "SELECT COUNT(*) FROM lineitem" [private_table]
//
// The privacy unit defaults to the first table the query scans; each
// private table is its own dataset (own budget, enforcer registry and
// sensitivity cache). A `/stats` dump prints at the end.
#include <cstdio>
#include <string>
#include <variant>
#include <vector>

#include "common/hash.h"
#include "queries/plan_query.h"
#include "relational/optimizer.h"
#include "relational/sql_exec.h"
#include "relational/sql_parser.h"
#include "service/service.h"

using namespace upa;

namespace {

std::string FormatCell(const rel::Value& v) {
  char buf[64];
  if (std::holds_alternative<int64_t>(v)) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(std::get<int64_t>(v)));
    return buf;
  }
  if (std::holds_alternative<double>(v)) {
    std::snprintf(buf, sizeof(buf), "%.4f", std::get<double>(v));
    return buf;
  }
  return std::get<std::string>(v);
}

/// Grouped / multi-item SELECTs run natively (fused kernels per group) and
/// print a result table. No DP release: per-group release needs DP
/// partition selection for the key sets (ROADMAP item 1b) — an honest
/// "native only" banner beats a bogus one-noise-fits-all release.
int RunWide(engine::ExecContext& ctx, const tpch::TpchDataset& data,
            const std::string& sql) {
  rel::Catalog catalog = data.catalog();
  Result<rel::SqlResultSet> result = rel::ExecuteSql(&ctx, catalog, sql);
  if (!result.ok()) {
    std::fprintf(stderr, "execution error: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const rel::SqlResultSet& rs = result.value();
  std::printf("sql>     %s\n", sql.c_str());
  std::printf("note:    grouped/multi-aggregate results are native-only; "
              "DP release of group keys needs partition selection "
              "(ROADMAP 1b)\n");
  std::string header;
  for (const std::string& col : rs.columns) {
    header += header.empty() ? col : " | " + col;
  }
  std::printf("         %s\n", header.c_str());
  for (const rel::Row& row : rs.rows) {
    std::string line;
    for (const rel::Value& v : row) {
      line += line.empty() ? FormatCell(v) : " | " + FormatCell(v);
    }
    std::printf("         %s\n", line.c_str());
  }
  std::printf("\n");
  return 0;
}

int RunOne(engine::ExecContext& ctx,
           std::shared_ptr<const rel::PlanExecutor> executor,
           const tpch::TpchDataset& data, service::UpaService& service,
           const std::string& sql, std::string private_table) {
  Result<rel::PlanPtr> parsed = rel::ParseSql(sql);
  if (!parsed.ok()) {
    // Not the scalar DP subset — but maybe the wider single-block
    // surface (GROUP BY / HAVING / ORDER BY / multiple items).
    if (rel::ParseSqlSelect(sql).ok()) {
      return RunWide(ctx, data, sql);
    }
    std::fprintf(stderr, "parse error: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }
  rel::PlanStats stats = rel::AnalyzePlan(parsed.value());
  if (private_table.empty()) {
    // Default privacy unit: the last-joined scan (the fact-table position
    // in the left-deep trees the parser builds). Decided on the *parsed*
    // plan so the choice is independent of how the optimizer reshapes it.
    private_table = stats.tables.empty() ? "" : stats.tables.back();
  }

  // Cost-based optimization: predicate pushdown, join reorder, conjunct
  // ordering and build-side hints — bit-identical results, so the DP
  // release is unaffected.
  rel::OptimizerOptions opt;
  opt.private_table = private_table;
  rel::PlanPtr plan = rel::Optimize(parsed.value(), data.catalog(), opt);

  // Wrap the optimized plan as a UPA query over the chosen private table.
  tpch::TpchQuery query;
  query.name = "sql:" + sql.substr(0, 40);
  query.plan = plan;
  query.private_table = private_table;

  auto native = executor->Execute(query.plan);
  if (!native.ok()) {
    std::fprintf(stderr, "execution error: %s\n",
                 native.status().ToString().c_str());
    return 1;
  }

  if (stats.agg != rel::AggKind::kCount && stats.agg != rel::AggKind::kSum) {
    std::printf("sql>     %s\n", sql.c_str());
    std::printf("plan:    %s\n", rel::PlanToString(query.plan).c_str());
    std::printf(
        "note:    AVG/MIN/MAX are not additive; UPA releases them via a "
        "COUNT+SUM rewrite (run those separately). Native-only result: "
        "%.4f\n\n",
        native.value().output);
    return 0;
  }

  service::QueryRequest request;
  request.tenant = "console";
  request.dataset_id = private_table;
  // The plan is already optimized above (we needed it for display and the
  // fingerprint), so MakePlanQuery must not optimize again.
  request.query = queries::MakePlanQuery(&ctx, std::move(executor), &data,
                                         query, nullptr, /*optimize=*/false);
  request.epsilon = service.config().upa.epsilon;
  request.seed = 2026;
  // Cache key: the optimized plan's shape, not the SQL text — two spellings
  // of one plan share their inferred sensitivity.
  request.fingerprint = Fnv1a(rel::PlanToString(query.plan));
  auto result = service.Execute(request);
  if (!result.ok()) {
    std::fprintf(stderr, "UPA error: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const service::QueryResponse& response = result.value();

  std::printf("sql>     %s\n", sql.c_str());
  std::printf("plan:    %s\n", rel::PlanToString(query.plan).c_str());
  std::printf("private: one record of '%s' (budget left %.2f)\n",
              private_table.c_str(),
              service.accountant().Remaining(private_table));
  std::printf("true     = %.4f   (never leaves the system)\n",
              native.value().output);
  std::printf("released = %.4f   (eps=%.2f, inferred sensitivity %.4g%s%s)\n\n",
              response.released, response.epsilon,
              response.local_sensitivity,
              response.sensitivity_cache_hit ? ", cached sensitivity" : "",
              response.attack_suspected ? ", repeat-query defense engaged"
                                        : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  tpch::TpchConfig cfg;
  cfg.num_orders = 2000;
  tpch::TpchDataset data(cfg);
  engine::ExecContext ctx;
  rel::Catalog catalog = data.catalog();
  auto executor = std::make_shared<const rel::PlanExecutor>(&ctx, &catalog);

  service::ServiceConfig service_cfg;
  service_cfg.upa.epsilon = 0.5;
  service_cfg.budget_per_dataset = 4.0;
  service::UpaService service(&ctx, service_cfg);

  if (argc >= 2) {
    return RunOne(ctx, executor, data, service, argv[1],
                  argc >= 3 ? argv[2] : "");
  }

  const std::vector<std::string> demo = {
      "SELECT COUNT(*) FROM lineitem",
      "SELECT SUM(l_extendedprice * l_discount) FROM lineitem "
      "WHERE l_shipdate >= 365 AND l_shipdate < 730",
      "SELECT COUNT(*) FROM customer JOIN orders ON c_custkey = o_custkey "
      "WHERE o_orderpriority <> '1-URGENT'",
      // A literal repeat: hits the sensitivity cache AND trips the
      // enforcer's repeat-query defense.
      "SELECT COUNT(*) FROM lineitem",
      // Grouped query: runs natively through the fused per-group kernels
      // and prints a table (no DP release yet — see the banner).
      "SELECT l_returnflag, COUNT(*) AS n, SUM(l_quantity) AS qty "
      "FROM lineitem GROUP BY l_returnflag ORDER BY qty DESC",
  };
  for (const std::string& sql : demo) {
    int rc = RunOne(ctx, executor, data, service, sql, "");
    if (rc != 0) return rc;
  }
  std::printf("%s", service.StatsReport().c_str());
  return 0;
}
