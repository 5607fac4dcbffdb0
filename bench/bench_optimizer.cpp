// Cost-based optimizer: naive SQL-shaped plans vs Optimize() output.
//
// The baseline for every query is LiftFilters(plan) — the shape the SQL
// front-end emits, with the whole WHERE clause conjoined above the joins
// (the hand-built paper plans already push their filters, so measuring
// them directly would hide the optimizer's work). For each query this
// benchmark records
//   * wall-clock of the naive vs the optimized plan (columnar engine,
//     no block cache, min over UPA_RUNS),
//   * the total number of rows entering join operators in each plan,
//     measured by actually executing Count() over every join input —
//     the cardinality the optimizer exists to shrink,
// and asserts that both plans agree bit-for-bit on the output.
//
// Emits BENCH_optimizer.json (override with UPA_BENCH_JSON). Knobs:
// UPA_ORDERS, UPA_RUNS, UPA_THREADS, UPA_SEED (src/bench_util/harness.h).
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util/harness.h"
#include "common/table_printer.h"
#include "relational/executor.h"
#include "relational/optimizer.h"
#include "tpch/generator.h"
#include "tpch/queries.h"

using namespace upa;

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Best-of-`runs` wall clock; returns the result of the fastest run.
double TimeQuery(const rel::PlanExecutor& exec, const rel::PlanPtr& plan,
                 size_t runs, rel::ExecResult* result) {
  rel::ExecOptions opts;
  opts.engine = rel::ExecEngine::kColumnar;
  double best = 1e100;
  for (size_t r = 0; r < runs; ++r) {
    const double t0 = Now();
    Result<rel::ExecResult> res = exec.Execute(plan, opts);
    const double dt = Now() - t0;
    UPA_CHECK_MSG(res.ok(), "bench query failed: " + res.status().ToString());
    if (dt < best) {
      best = dt;
      *result = std::move(res).value();
    }
  }
  return best;
}

void CollectJoinInputs(const rel::PlanPtr& plan,
                       std::vector<rel::PlanPtr>& inputs) {
  if (plan == nullptr) return;
  if (plan->kind == rel::PlanKind::kJoin) {
    inputs.push_back(plan->left);
    inputs.push_back(plan->right);
  }
  CollectJoinInputs(plan->left, inputs);
  CollectJoinInputs(plan->right, inputs);
}

// Total rows flowing INTO join operators, measured by executing a Count
// over every join input subtree. This is ground truth, not an estimate.
size_t JoinInputRows(const rel::PlanExecutor& exec, const rel::PlanPtr& plan) {
  std::vector<rel::PlanPtr> inputs;
  CollectJoinInputs(plan, inputs);
  size_t total = 0;
  for (const rel::PlanPtr& input : inputs) {
    rel::ExecOptions opts;
    opts.engine = rel::ExecEngine::kColumnar;
    Result<rel::ExecResult> r = exec.Execute(rel::CountPlan(input), opts);
    UPA_CHECK_MSG(r.ok(), "join-input count failed: " + r.status().ToString());
    total += static_cast<size_t>(r.value().output);
  }
  return total;
}

std::string JsonNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main() {
  bench::BenchEnv env = bench::BenchEnv::FromEnv();
  bench::PrintBanner("Cost-based optimizer: naive vs optimized plans", env);

  tpch::TpchDataset data(tpch::TpchConfig{.num_orders = env.orders,
                                          .max_lineitems_per_order = 7,
                                          .reference_skew = 1.1,
                                          .seed = env.seed});
  rel::Catalog catalog = data.catalog();
  engine::ExecContext ctx(
      engine::ExecConfig{.threads = env.threads, .default_partitions = 4});
  rel::PlanExecutor exec(&ctx, &catalog);

  std::string rows_json;
  bool all_identical = true;
  // ISSUE acceptance: the multi-join queries must show a real reduction in
  // join input cardinality.
  size_t tpch16_delta = 0, tpch21_delta = 0;

  TablePrinter table({"query", "naive (ms)", "optimized (ms)", "speedup",
                      "join-in rows", "join-in opt", "identical"});
  for (const tpch::TpchQuery& q : tpch::AllTpchQueries()) {
    const rel::PlanPtr naive = rel::LiftFilters(q.plan);
    rel::OptimizerOptions opt;
    opt.private_table = q.private_table;
    const rel::PlanPtr optimized = rel::Optimize(naive, catalog, opt);

    rel::ExecResult naive_res, opt_res;
    const double naive_s = TimeQuery(exec, naive, env.runs, &naive_res);
    const double opt_s = TimeQuery(exec, optimized, env.runs, &opt_res);
    const size_t naive_rows = JoinInputRows(exec, naive);
    const size_t opt_rows = JoinInputRows(exec, optimized);

    const bool identical = std::bit_cast<uint64_t>(naive_res.output) ==
                           std::bit_cast<uint64_t>(opt_res.output);
    all_identical = all_identical && identical;
    if (q.name == "TPCH16") tpch16_delta = naive_rows - opt_rows;
    if (q.name == "TPCH21") tpch21_delta = naive_rows - opt_rows;

    const double speedup = naive_s / std::max(1e-9, opt_s);
    table.AddRow({q.name, TablePrinter::FormatDouble(naive_s * 1e3, 3),
                  TablePrinter::FormatDouble(opt_s * 1e3, 3),
                  TablePrinter::FormatDouble(speedup, 2),
                  std::to_string(naive_rows), std::to_string(opt_rows),
                  identical ? "yes" : "NO"});
    if (!rows_json.empty()) rows_json += ",\n";
    rows_json += "    {\"name\": \"" + q.name +
                 "\", \"naive_ms\": " + JsonNum(naive_s * 1e3) +
                 ", \"optimized_ms\": " + JsonNum(opt_s * 1e3) +
                 ", \"speedup\": " + JsonNum(speedup) +
                 ", \"naive_join_input_rows\": " + std::to_string(naive_rows) +
                 ", \"optimized_join_input_rows\": " +
                 std::to_string(opt_rows) +
                 ", \"output\": " + JsonNum(opt_res.output) +
                 ", \"identical\": " + (identical ? "true" : "false") + "}";
  }
  table.Print(
      "Naive (lifted) vs optimized plans (columnar, cache off, min over "
      "runs)");

  const char* path_env = std::getenv("UPA_BENCH_JSON");
  const std::string path =
      path_env != nullptr ? path_env : "BENCH_optimizer.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  UPA_CHECK_MSG(f != nullptr, "cannot open " + path);
  std::fprintf(f,
               "{\n  \"experiment\": \"optimizer\",\n"
               "  \"orders\": %zu,\n  \"runs\": %zu,\n  \"threads\": %zu,\n"
               "  \"seed\": %llu,\n  \"queries\": [\n%s\n  ]\n}\n",
               env.orders, env.runs, ctx.pool().thread_count(),
               static_cast<unsigned long long>(env.seed), rows_json.c_str());
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());

  UPA_CHECK_MSG(all_identical, "naive and optimized outputs diverged");
  UPA_CHECK_MSG(tpch16_delta > 0,
                "optimizer did not reduce TPCH16 join input rows");
  UPA_CHECK_MSG(tpch21_delta > 0,
                "optimizer did not reduce TPCH21 join input rows");
  return 0;
}
