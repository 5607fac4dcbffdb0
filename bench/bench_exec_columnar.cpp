// Row interpreter vs columnar engine: wall-clock per TPC-H plan query and
// per UPA release bundle (the passes src/queries/plan_query.cpp issues),
// plus a bit-identity check on every output.
//
// Emits machine-readable JSON to BENCH_exec.json (override the path with
// UPA_BENCH_JSON) so the perf trajectory of the execution layer can be
// tracked PR-over-PR. Knobs: UPA_ORDERS, UPA_RUNS, UPA_SAMPLE_N,
// UPA_THREADS, UPA_SEED (src/bench_util/harness.h).
//
// Timing protocol: per-query numbers run without a block cache so they
// measure execution, not memoization (Table::Columnar() is still built
// once — that is a property of the storage layer, not of a run). Release
// bundles take the production shape: a hinted release is the one
// provenance pass, a cold release the provenance pass plus the domain
// pass; each repetition gets a fresh release-scoped cache, exactly like
// MakePlanQuery, so the passes of one release share the public subtrees
// and independent releases share nothing. Hinted and cold repetitions also
// get a fresh executor, whose S′ memo is empty; the memo column times the
// provenance pass on an executor that has run it before, which scans the
// sampled rows only. All numbers are the minimum over UPA_RUNS
// repetitions.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util/harness.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "relational/columnar.h"
#include "relational/executor.h"
#include "relational/optimizer.h"
#include "relational/sql_parser.h"
#include "tpch/generator.h"
#include "tpch/queries.h"

using namespace upa;

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Timed {
  double seconds = 0.0;
  rel::ExecResult result;
};

// Best-of-`runs` timing of `run`, which executes one plan.
Timed TimeQuery(const std::function<Result<rel::ExecResult>()>& run,
                size_t runs) {
  Timed best;
  best.seconds = 1e100;
  for (size_t r = 0; r < runs; ++r) {
    double t0 = Now();
    Result<rel::ExecResult> res = run();
    double dt = Now() - t0;
    UPA_CHECK_MSG(res.ok(), "bench query failed: " + res.status().ToString());
    if (dt < best.seconds) {
      best.seconds = dt;
      best.result = std::move(res).value();
    }
  }
  return best;
}

// One release bundle as MakePlanQuery issues it, best over `runs`
// repetitions: `hinted` times the provenance pass alone, `cold` the
// provenance pass plus the domain pass. Every repetition owns a fresh
// cache and executor, so nothing carries over between releases. `memo`
// (columnar only) times the provenance pass answered from the S′ memo.
// `pass` and `memo_pass` are the two passes' results, for the bit-identity
// check.
struct Bundle {
  double hinted = 1e100;
  double cold = 1e100;
  double memo = 1e100;
  rel::ExecResult pass;
  rel::ExecResult memo_pass;
};

Bundle TimeReleaseBundle(engine::ExecContext& ctx, const rel::Catalog& catalog,
                         const tpch::TpchDataset& data,
                         const tpch::TpchQuery& q, rel::ExecEngine engine,
                         size_t sample_n, size_t runs, uint64_t seed) {
  const size_t n = data.table(q.private_table).NumRows();
  Rng rng = Rng::ForStream(seed, "bench_exec/phases/" + q.name);
  std::vector<size_t> sample =
      rng.SampleWithoutReplacement(n, std::min(sample_n, n));
  Result<std::shared_ptr<const rel::ColumnarTable>> domain_rows =
      data.SampleColumns(q.private_table, std::min(sample_n, n), rng);
  UPA_CHECK(domain_rows.ok());
  std::vector<size_t> all_domain(domain_rows.value()->num_rows());
  std::iota(all_domain.begin(), all_domain.end(), size_t{0});

  auto provenance_pass = [&](const rel::PlanExecutor& exec,
                             engine::BlockCache* cache) {
    rel::ExecOptions pass;
    pass.engine = engine;
    pass.private_table = q.private_table;
    pass.sample_rows = &sample;
    pass.partitions = 4;
    pass.cache = cache;
    Result<rel::ExecResult> res = exec.Execute(q.plan, pass);
    UPA_CHECK(res.ok());
    return std::move(res).value();
  };

  Bundle best;
  for (bool with_domain : {false, true}) {
    for (size_t r = 0; r < runs; ++r) {
      const rel::PlanExecutor exec(&ctx, &catalog);
      engine::BlockCache cache(&ctx.metrics());
      double t0 = Now();
      rel::ExecResult res = provenance_pass(exec, &cache);
      if (with_domain) {
        rel::ExecOptions domain;
        domain.engine = engine;
        domain.private_table = q.private_table;
        domain.replace_private_rows = domain_rows.value().get();
        domain.sample_rows = &all_domain;
        domain.partitions = 1;
        domain.cache = &cache;
        UPA_CHECK(exec.Execute(q.plan, domain).ok());
      }
      const double dt = Now() - t0;
      double& slot = with_domain ? best.cold : best.hinted;
      slot = std::min(slot, dt);
      best.pass = std::move(res);
    }
  }
  if (engine == rel::ExecEngine::kColumnar) {
    const rel::PlanExecutor warm(&ctx, &catalog);
    {
      engine::BlockCache cache(&ctx.metrics());
      provenance_pass(warm, &cache);  // fills the S′ memo
    }
    for (size_t r = 0; r < runs; ++r) {
      engine::BlockCache cache(&ctx.metrics());
      double t0 = Now();
      best.memo_pass = provenance_pass(warm, &cache);
      best.memo = std::min(best.memo, Now() - t0);
    }
  }
  return best;
}

bool SameBits(const rel::ExecResult& a, const rel::ExecResult& b) {
  auto bits = [](const std::vector<double>& v) {
    std::vector<uint64_t> out;
    for (double d : v) out.push_back(std::bit_cast<uint64_t>(d));
    return out;
  };
  return std::bit_cast<uint64_t>(a.output) ==
             std::bit_cast<uint64_t>(b.output) &&
         bits(a.partition_outputs) == bits(b.partition_outputs) &&
         bits(a.sample_contributions) == bits(b.sample_contributions);
}

std::string JsonNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main() {
  bench::BenchEnv env = bench::BenchEnv::FromEnv();
  bench::PrintBanner("Row interpreter vs columnar engine", env);

  tpch::TpchDataset data(tpch::TpchConfig{.num_orders = env.orders,
                                          .max_lineitems_per_order = 7,
                                          .reference_skew = 1.1,
                                          .seed = env.seed});
  rel::Catalog catalog = data.catalog();
  engine::ExecContext ctx(
      engine::ExecConfig{.threads = env.threads, .default_partitions = 4});
  rel::PlanExecutor exec(&ctx, &catalog);

  std::string queries_json, phases_json;
  bool all_identical = true;

  // --- Per-query: plain plan execution, no block cache.
  TablePrinter qtable(
      {"query", "row (ms)", "columnar (ms)", "speedup", "identical"});
  for (const tpch::TpchQuery& q : tpch::AllTpchQueries()) {
    rel::ExecOptions opts;
    opts.engine = rel::ExecEngine::kRowOracle;
    auto run = [&] { return exec.Execute(q.plan, opts); };
    Timed row = TimeQuery(run, env.runs);
    opts.engine = rel::ExecEngine::kColumnar;
    Timed col = TimeQuery(run, env.runs);

    const bool identical = row.result.output == col.result.output &&
                           row.result.result_rows == col.result.result_rows;
    all_identical = all_identical && identical;
    const double speedup = row.seconds / std::max(1e-9, col.seconds);
    qtable.AddRow({q.name, TablePrinter::FormatDouble(row.seconds * 1e3, 3),
                   TablePrinter::FormatDouble(col.seconds * 1e3, 3),
                   TablePrinter::FormatDouble(speedup, 2),
                   identical ? "yes" : "NO"});
    if (!queries_json.empty()) queries_json += ",\n";
    queries_json += "    {\"name\": \"" + q.name +
                    "\", \"row_ms\": " + JsonNum(row.seconds * 1e3) +
                    ", \"columnar_ms\": " + JsonNum(col.seconds * 1e3) +
                    ", \"speedup\": " + JsonNum(speedup) +
                    ", \"output\": " + JsonNum(col.result.output) +
                    ", \"identical\": " + (identical ? "true" : "false") + "}";
  }
  qtable.Print("TPC-H plan queries (plain run, no block cache, min over runs)");

  // --- Per-release bundle: the one provenance pass (hinted) and the pass
  // plus the domain pass (cold), release-scoped cache.
  TablePrinter ptable({"query", "row hinted (ms)", "columnar hinted (ms)",
                       "columnar memo (ms)", "row cold (ms)",
                       "columnar cold (ms)", "speedup (cold)", "identical"});
  for (const tpch::TpchQuery& q : tpch::AllTpchQueries()) {
    Bundle row = TimeReleaseBundle(ctx, catalog, data, q,
                                   rel::ExecEngine::kRowOracle, env.sample_n,
                                   env.runs, env.seed);
    Bundle col = TimeReleaseBundle(ctx, catalog, data, q,
                                   rel::ExecEngine::kColumnar, env.sample_n,
                                   env.runs, env.seed);
    const bool identical =
        SameBits(row.pass, col.pass) && SameBits(col.pass, col.memo_pass);
    all_identical = all_identical && identical;
    const double speedup = row.cold / std::max(1e-9, col.cold);
    ptable.AddRow({q.name, TablePrinter::FormatDouble(row.hinted * 1e3, 3),
                   TablePrinter::FormatDouble(col.hinted * 1e3, 3),
                   TablePrinter::FormatDouble(col.memo * 1e3, 3),
                   TablePrinter::FormatDouble(row.cold * 1e3, 3),
                   TablePrinter::FormatDouble(col.cold * 1e3, 3),
                   TablePrinter::FormatDouble(speedup, 2),
                   identical ? "yes" : "NO"});
    if (!phases_json.empty()) phases_json += ",\n";
    phases_json += "    {\"name\": \"" + q.name +
                   "\", \"row_hinted_ms\": " + JsonNum(row.hinted * 1e3) +
                   ", \"columnar_hinted_ms\": " + JsonNum(col.hinted * 1e3) +
                   ", \"columnar_memo_ms\": " + JsonNum(col.memo * 1e3) +
                   ", \"row_ms\": " + JsonNum(row.cold * 1e3) +
                   ", \"columnar_ms\": " + JsonNum(col.cold * 1e3) +
                   ", \"speedup\": " + JsonNum(speedup) +
                   ", \"identical\": " + (identical ? "true" : "false") + "}";
  }
  ptable.Print(
      "UPA release bundles: provenance pass (hinted), the same pass from the "
      "S' memo, + domain pass (cold), min over runs");

  // --- Fused vs interpreted: filter-heavy single-table aggregates, the
  // Aggregate(Filter*(Scan)) shapes the fused kernels target, and
  // aggregates over one join of two such chains (the release benchmark's
  // join template, and a SUM whose weight reads the build side). Both sides
  // run the columnar engine: the unfused baseline through the interpreted
  // entry point, the fused side through the executor. No block cache, like
  // the per-query section. Identity is UPA_CHECKed bit-for-bit.
  std::string fused_json;
  const std::vector<std::pair<std::string, std::string>> fused_queries = {
      {"count_qty",
       "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 25"},
      {"count_qty_discount",
       "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 40 AND "
       "l_discount < 0.08"},
      {"count_flag_qty",
       "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 30 AND "
       "l_returnflag = 'R'"},
      {"sum_price_window",
       "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_shipdate >= 365 "
       "AND l_shipdate < 730 AND l_discount >= 0.03"},
      {"min_price_discount",
       "SELECT MIN(l_extendedprice) FROM lineitem WHERE l_discount < 0.05"},
      {"max_price_qty",
       "SELECT MAX(l_extendedprice) FROM lineitem WHERE l_quantity >= 10"},
      {"join_count",
       "SELECT COUNT(*) FROM orders JOIN lineitem ON o_orderkey = l_orderkey "
       "WHERE o_orderdate >= 100 AND o_orderdate < 2000 AND l_quantity < 47"},
      {"join_sum_build_side",
       "SELECT SUM(o_orderdate) FROM orders JOIN lineitem ON o_orderkey = "
       "l_orderkey WHERE o_orderdate >= 100 AND o_orderdate < 2000 AND "
       "l_quantity < 47"},
  };
  TablePrinter ftable(
      {"query", "interpret (ms)", "fused (ms)", "speedup", "identical"});
  for (const auto& [name, sql] : fused_queries) {
    Result<rel::PlanPtr> parsed = rel::ParseSql(sql);
    UPA_CHECK_MSG(parsed.ok(), "bench SQL failed to parse: " + sql);
    // Optimize first — splitting/ordering conjuncts into a Filter chain —
    // so both sides run the plan shape real consumers execute (a raw
    // parsed AND is one generic conjunct and would undersell both paths).
    rel::PlanPtr plan =
        rel::Optimize(parsed.value(), catalog, rel::OptimizerOptions{});
    rel::ExecOptions opts;
    opts.engine = rel::ExecEngine::kColumnar;
    Timed interp = TimeQuery(
        [&] {
          return rel::ExecuteColumnarInterpreted(&ctx, &catalog, plan, opts);
        },
        env.runs);
    Timed fused =
        TimeQuery([&] { return exec.Execute(plan, opts); }, env.runs);
    const bool identical =
        interp.result.output == fused.result.output &&
        interp.result.result_rows == fused.result.result_rows;
    all_identical = all_identical && identical;
    const double speedup = interp.seconds / std::max(1e-9, fused.seconds);
    ftable.AddRow({name, TablePrinter::FormatDouble(interp.seconds * 1e3, 3),
                   TablePrinter::FormatDouble(fused.seconds * 1e3, 3),
                   TablePrinter::FormatDouble(speedup, 2),
                   identical ? "yes" : "NO"});
    if (!fused_json.empty()) fused_json += ",\n";
    fused_json += "    {\"name\": \"" + name +
                  "\", \"interpret_ms\": " + JsonNum(interp.seconds * 1e3) +
                  ", \"fused_ms\": " + JsonNum(fused.seconds * 1e3) +
                  ", \"speedup\": " + JsonNum(speedup) +
                  ", \"output\": " + JsonNum(fused.result.output) +
                  ", \"identical\": " + (identical ? "true" : "false") + "}";
  }
  ftable.Print(
      "Fused vs interpreted columnar (filter-heavy chains, min over runs)");

  const char* path_env = std::getenv("UPA_BENCH_JSON");
  const std::string path = path_env != nullptr ? path_env : "BENCH_exec.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  UPA_CHECK_MSG(f != nullptr, "cannot open " + path);
  std::fprintf(f,
               "{\n  \"experiment\": \"exec_columnar\",\n"
               "  \"orders\": %zu,\n  \"sample_n\": %zu,\n"
               "  \"runs\": %zu,\n  \"threads\": %zu,\n  \"seed\": %llu,\n"
               "  \"queries\": [\n%s\n  ],\n"
               "  \"phase_bundles\": [\n%s\n  ],\n"
               "  \"fused\": [\n%s\n  ]\n}\n",
               env.orders, env.sample_n, env.runs, ctx.pool().thread_count(),
               static_cast<unsigned long long>(env.seed),
               queries_json.c_str(), phases_json.c_str(), fused_json.c_str());
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());

  UPA_CHECK_MSG(all_identical, "row and columnar outputs diverged");
  return 0;
}
