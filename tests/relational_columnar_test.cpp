// Differential harness: the columnar engine vs the row-oracle interpreter.
//
// Both engines aggregate through exact (correctly-rounded) summation, so
// they must agree *bit-for-bit* — not approximately — on every output,
// partition output and per-record contribution, under any thread-pool
// size. This suite asserts exactly that over
//   * all seven TPC-H plan queries × the UPA option shapes (plain, the one
//     provenance pass with a sample, with every record sampled and over a
//     replaced private table, and plain runs over record sets — the
//     reference the one pass is anchored to),
//   * ~50 seeded random SPJ plans (chained equi-joins over the TPC-H
//     schema graph, random typed predicates, all five aggregate kinds),
//   * tables of several kBatch-row batches: non-finite values on every
//     batch edge, and a Zipf-skewed join,
// each executed under a 1-thread and a 4-thread engine. PlanQueryMemoTest
// holds the executor's cross-release S′ memo to the same standard: a one
// pass answered from the memo matches the full pass and the row oracle.
//
// The generator keeps plans inside the domain where bit-identity is a
// theorem rather than luck: joins only on int key columns, no division
// (whole-batch vs per-row abort timing), no mixed string/numeric ordered
// comparisons (those abort), and literals drawn from actual table cells so
// predicates exercise empty, partial and full selectivity.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "relational/columnar.h"
#include "relational/executor.h"
#include "relational/fused.h"
#include "relational/optimizer.h"
#include "relational/plan.h"
#include "relational/sql_parser.h"
#include "tpch/generator.h"
#include "tpch/queries.h"

namespace upa::rel {
namespace {

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

// One small dataset shared by every test in the binary (generation
// dominates runtime; the tables are immutable).
const tpch::TpchDataset& Dataset() {
  static const tpch::TpchDataset* ds = new tpch::TpchDataset(
      tpch::TpchConfig{.num_orders = 400,
                       .max_lineitems_per_order = 5,
                       .reference_skew = 1.1,
                       .seed = 7});
  return *ds;
}

void ExpectBitIdentical(const ExecResult& want, const ExecResult& got,
                        const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(Bits(want.output), Bits(got.output))
      << "output " << want.output << " vs " << got.output;
  EXPECT_EQ(want.result_rows, got.result_rows);
  ASSERT_EQ(want.partition_outputs.size(), got.partition_outputs.size());
  for (size_t p = 0; p < want.partition_outputs.size(); ++p) {
    EXPECT_EQ(Bits(want.partition_outputs[p]), Bits(got.partition_outputs[p]))
        << "partition " << p << ": " << want.partition_outputs[p] << " vs "
        << got.partition_outputs[p];
  }
  ASSERT_EQ(want.sample_contributions.size(), got.sample_contributions.size());
  for (size_t k = 0; k < want.sample_contributions.size(); ++k) {
    EXPECT_EQ(Bits(want.sample_contributions[k]),
              Bits(got.sample_contributions[k]))
        << "sample slot " << k << ": " << want.sample_contributions[k]
        << " vs " << got.sample_contributions[k];
  }
}

// The one provenance pass's option shape: `sample` routed to its slots,
// every other row to one of `partitions` partition sums.
ExecOptions OnePass(const std::string& private_table,
                    const std::vector<size_t>* sample, size_t partitions) {
  ExecOptions opts;
  opts.private_table = private_table;
  opts.sample_rows = sample;
  opts.partitions = partitions;
  return opts;
}

/// `table` without the rows `dropped`, built into columns once: a churned
/// private table, as ExecOptions::replace_private_rows takes it.
std::shared_ptr<const ColumnarTable> Churned(
    const tpch::TpchDataset& ds, const std::string& table,
    const std::vector<size_t>& dropped) {
  return ColumnarTable::Build(ds.table(table).schema(),
                              ds.RowsWithout(table, dropped));
}

/// [0, n): every record of an n-row private table.
std::vector<size_t> AllRows(size_t n) {
  std::vector<size_t> rows(n);
  std::iota(rows.begin(), rows.end(), size_t{0});
  return rows;
}

/// The rows of [0, n) not in `rows` (sorted): a run without `rows`.
std::vector<size_t> Complement(const std::vector<size_t>& rows, size_t n) {
  std::vector<size_t> out;
  size_t cursor = 0;
  for (size_t i = 0; i < n; ++i) {
    if (cursor < rows.size() && rows[cursor] == i) {
      ++cursor;
    } else {
      out.push_back(i);
    }
  }
  return out;
}

/// A random record-set run: the relation is a random subset of the private
/// table or its complement. A partitioned run is the one pass sampling the
/// rest, so its partition outputs cover exactly the relation; a tracked
/// one samples every record of the relation; any other is a plain include.
struct SubsetRun {
  std::vector<size_t> relation, rest;
  size_t parts = 0;
  bool track = false;

  /// Draws in a fixed order: the subset, include-or-exclude, tracking, the
  /// partition count.
  SubsetRun(size_t n, Rng& rng)
      : relation(rng.SampleWithoutReplacement(n, rng.UniformU64(n + 1))),
        rest(Complement(relation, n)) {
    if (rng.Bernoulli(0.5)) relation.swap(rest);  // exclude the subset
    track = rng.Bernoulli(0.5);
    parts = rng.UniformU64(4);
  }

  ExecOptions Options(const std::string& private_table) const {
    if (parts > 0) return OnePass(private_table, &rest, parts);
    if (track) return OnePass(private_table, &relation, 1);
    ExecOptions opts;
    opts.private_table = private_table;
    opts.include_rows = &relation;
    return opts;
  }
};

struct MemoDelta {
  uint64_t hits = 0, misses = 0;
};

/// The memo hits and misses `ctx` counts while `fn` runs.
template <typename Fn>
MemoDelta CountMemo(engine::ExecContext& ctx, Fn&& fn) {
  const engine::MetricsSnapshot before = ctx.metrics().Snapshot();
  fn();
  const engine::MetricsSnapshot d = ctx.metrics().Snapshot() - before;
  return {d.memo_hits, d.memo_misses};
}

bool AnyZero(const std::vector<double>& v) {
  return std::any_of(v.begin(), v.end(), [](double x) { return x == 0.0; });
}

// Runs `plan` under both engines and both pool sizes; every run must agree
// bit-for-bit with the 1-thread row oracle (or fail with the same status).
class DifferentialRunner {
 public:
  DifferentialRunner()
      : ctx1_(engine::ExecConfig{.threads = 1, .default_partitions = 1}),
        ctx4_(engine::ExecConfig{.threads = 4, .default_partitions = 4}),
        catalog_(Dataset().catalog()),
        exec1_(&ctx1_, &catalog_),
        exec4_(&ctx4_, &catalog_) {}

  void Run(const std::string& label, const PlanPtr& plan,
           ExecOptions options) {
    options.engine = ExecEngine::kRowOracle;
    Result<ExecResult> oracle = exec1_.Execute(plan, options);

    struct Variant {
      const char* name;
      const PlanExecutor* exec;
      ExecEngine engine;
    };
    const Variant variants[] = {
        {"columnar/threads=1", &exec1_, ExecEngine::kColumnar},
        {"row/threads=4", &exec4_, ExecEngine::kRowOracle},
        {"columnar/threads=4", &exec4_, ExecEngine::kColumnar},
    };
    for (const Variant& v : variants) {
      options.engine = v.engine;
      Result<ExecResult> got = v.exec->Execute(plan, options);
      const std::string trace = label + " [" + v.name + "]";
      SCOPED_TRACE(trace);
      ASSERT_EQ(oracle.ok(), got.ok())
          << (oracle.ok() ? got.status().ToString()
                          : oracle.status().ToString());
      if (!oracle.ok()) {
        EXPECT_EQ(oracle.status().ToString(), got.status().ToString());
        continue;
      }
      ExpectBitIdentical(oracle.value(), got.value(), trace);
    }
  }

  // Oracle from the *unoptimized* plan (row engine, 1 thread); the
  // *optimized* plan runs under both engines and both pool sizes and must
  // reproduce the oracle bit-for-bit — the optimizer's safety contract.
  void RunPair(const std::string& label, const PlanPtr& base,
               const PlanPtr& optimized, ExecOptions options) {
    options.engine = ExecEngine::kRowOracle;
    Result<ExecResult> oracle = exec1_.Execute(base, options);

    struct Variant {
      const char* name;
      const PlanExecutor* exec;
      ExecEngine engine;
    };
    const Variant variants[] = {
        {"opt row/threads=1", &exec1_, ExecEngine::kRowOracle},
        {"opt columnar/threads=1", &exec1_, ExecEngine::kColumnar},
        {"opt row/threads=4", &exec4_, ExecEngine::kRowOracle},
        {"opt columnar/threads=4", &exec4_, ExecEngine::kColumnar},
    };
    for (const Variant& v : variants) {
      options.engine = v.engine;
      Result<ExecResult> got = v.exec->Execute(optimized, options);
      const std::string trace = label + " [" + v.name + "]";
      SCOPED_TRACE(trace);
      ASSERT_EQ(oracle.ok(), got.ok())
          << (oracle.ok() ? got.status().ToString()
                          : oracle.status().ToString());
      if (!oracle.ok()) {
        EXPECT_EQ(oracle.status().ToString(), got.status().ToString());
        continue;
      }
      ExpectBitIdentical(oracle.value(), got.value(), trace);
    }
  }

  const Catalog& catalog() const { return catalog_; }
  /// S′ memo hits of the columnar runs so far.
  uint64_t memo_hits() {
    return ctx1_.metrics().Snapshot().memo_hits +
           ctx4_.metrics().Snapshot().memo_hits;
  }

 private:
  engine::ExecContext ctx1_, ctx4_;
  Catalog catalog_;
  PlanExecutor exec1_, exec4_;
};

// ---------------------------------------------------------------------------
// TPC-H queries under the UPA option shapes.

TEST(ColumnarDifferentialTest, TpchQueriesAllOptionShapes) {
  DifferentialRunner runner;
  const tpch::TpchDataset& ds = Dataset();
  Rng rng = Rng::ForStream(7, "columnar_diff/tpch");
  Rng pass_rng = Rng::ForStream(7, "columnar_diff/tpch/one_pass");

  for (const tpch::TpchQuery& q : tpch::AllTpchQueries()) {
    const size_t n = ds.table(q.private_table).NumRows();

    // Plain native run: no provenance at all.
    runner.Run(q.name + "/plain", q.plan, ExecOptions{});

    // The one provenance pass: S' partitions and sampled slots in one scan.
    {
      std::vector<size_t> sample =
          pass_rng.SampleWithoutReplacement(n, std::min<size_t>(n, 40));
      runner.Run(q.name + "/one-pass", q.plan,
                 OnePass(q.private_table, &sample, 3));
    }

    // Every record sampled: each one's contribution from one scan.
    {
      const std::vector<size_t> all = AllRows(n);
      runner.Run(q.name + "/contrib", q.plan,
                 OnePass(q.private_table, &all, 1));
    }

    // S'-style: per-partition outputs without a sampled set.
    {
      std::vector<size_t> excluded =
          rng.SampleWithoutReplacement(n, std::min<size_t>(n, 25));
      runner.Run(q.name + "/sprime", q.plan,
                 OnePass(q.private_table, &excluded, 3));
    }

    // Sample-style: restricted to the sampled set.
    {
      std::vector<size_t> included =
          rng.SampleWithoutReplacement(n, std::min<size_t>(n, 40));
      ExecOptions opts;
      opts.private_table = q.private_table;
      opts.include_rows = &included;
      runner.Run(q.name + "/sample", q.plan, opts);
    }

    // Domain-style: private rows replaced wholesale (churned dataset), every
    // one of them sampled, like the release's domain pass.
    {
      std::vector<size_t> dropped =
          rng.SampleWithoutReplacement(n, std::min<size_t>(n, 10));
      const auto churned = Churned(ds, q.private_table, dropped);
      const std::vector<size_t> all = AllRows(churned->num_rows());
      ExecOptions opts = OnePass(q.private_table, &all, 2);
      opts.replace_private_rows = churned.get();
      runner.Run(q.name + "/domain", q.plan, opts);
    }
  }
}

// ---------------------------------------------------------------------------
// Folds across kBatch-row batches.

// A table of 3 × kBatch + 17 rows whose first and last rows of every batch
// carry NaN of both signs, ±inf, ±0.0, ±DBL_MAX and subnormals, so every
// per-batch fold (sums, partition sums, sample hits, min/max) merges
// values from several batches and from batch edges. Count, Sum, Avg, Min
// and Max over filter chains run fused and interpreted, plain and as the
// one pass, at 1 and 4 threads, bit for bit against the 1-thread row
// oracle.
TEST(ColumnarDifferentialTest, BatchEdgesBitIdentical) {
  constexpr size_t kRows = 3 * kBatch + 17;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kSub = std::numeric_limits<double>::denorm_min();
  const double edge[] = {kNan, -kNan, kInf, -kInf, 0.0,
                         -0.0, kMax, -kMax, kSub, -kSub};
  constexpr size_t kEdge = std::size(edge);
  std::vector<Row> rows;
  for (size_t i = 0; i < kRows; ++i) {
    const size_t begin = i / kBatch * kBatch;
    const size_t end = std::min(kRows, begin + kBatch);
    // Interior values climb by 3 per batch, so the extremes of a finite
    // chain sit in different batches.
    double v = 0.125 * static_cast<double>(i % 89) - 5.0 +
               3.0 * static_cast<double>(i / kBatch);
    if (i - begin < kEdge) v = edge[i - begin];
    if (end - i <= kEdge) v = edge[end - i - 1];
    rows.push_back({Value{static_cast<int64_t>(i)}, Value{v},
                    Value{std::string(1, static_cast<char>('a' + i % 3))}});
  }
  Table t("t",
          Schema({{"id", ValueType::kInt},
                  {"v", ValueType::kDouble},
                  {"g", ValueType::kString}}),
          std::move(rows));
  const Catalog catalog{{"t", &t}};

  // Innermost filter first. Under the engine's comparison contract a NaN
  // compares equal to everything, so `v < 1e300` drops NaNs and `v <= 0`
  // keeps them. "all" keeps every row: its sums fold NaNs of both signs
  // and ±inf from every batch edge.
  const PlanPtr scan = ScanPlan("t");
  const std::vector<std::pair<std::string, PlanPtr>> chains = {
      {"all", FilterPlan(scan, Ge(Col("id"), Lit(int64_t{0})))},
      {"finite", FilterPlan(FilterPlan(scan, Lt(Col("v"), Lit(1e300))),
                            Gt(Col("v"), Lit(-1e300)))},
      {"high-inf", FilterPlan(FilterPlan(scan, Ge(Col("v"), Lit(5.5))),
                              Gt(Col("v"), Lit(-1e300)))},
      {"low-inf",
       FilterPlan(FilterPlan(FilterPlan(scan, Lt(Col("v"), Lit(1e300))),
                             Le(Col("v"), Lit(-4.5))),
                  Ne(Col("g"), Lit("b")))},
      {"edges",
       FilterPlan(
           FilterPlan(FilterPlan(scan, Ge(Col("id"), Lit(int64_t{kBatch - 8}))),
                      Lt(Col("id"), Lit(int64_t{2 * kBatch + 8}))),
           Le(Col("v"), Lit(0.0)))},
  };
  // The one pass's sample: every special-valued row on either side of a
  // batch edge, and one interior row per batch.
  std::vector<size_t> sample;
  for (size_t i = 0; i < kRows; ++i) {
    const size_t offset = i % kBatch;
    if (offset < kEdge || offset >= kBatch - kEdge || i + kEdge >= kRows ||
        offset == 500) {
      sample.push_back(i);
    }
  }
  const ExecOptions pass = OnePass("t", &sample, 3);

  struct Run {
    std::string label;
    PlanPtr plan;
    ExecOptions options;
    ExecResult want;
  };
  std::vector<Run> runs;
  for (const auto& [name, chain] : chains) {
    const ExprPtr v = Col("v");
    runs.push_back({name + " count", CountPlan(chain), {}, {}});
    runs.push_back({name + " sum", SumPlan(chain, v), {}, {}});
    runs.push_back({name + " avg", AvgPlan(chain, v), {}, {}});
    runs.push_back({name + " min", MinPlan(chain, v), {}, {}});
    runs.push_back({name + " max", MaxPlan(chain, v), {}, {}});
    runs.push_back({name + " count/one-pass", CountPlan(chain), pass, {}});
    runs.push_back({name + " sum/one-pass", SumPlan(chain, v), pass, {}});
  }
  {
    engine::ExecContext ctx(
        engine::ExecConfig{.threads = 1, .default_partitions = 1});
    const PlanExecutor exec(&ctx, &catalog);
    for (Run& run : runs) {
      run.options.engine = ExecEngine::kRowOracle;
      Result<ExecResult> want = exec.Execute(run.plan, run.options);
      ASSERT_TRUE(want.ok()) << run.label << ": " << want.status().ToString();
      run.want = std::move(want).value();
    }
  }
  for (size_t threads : {size_t{1}, size_t{4}}) {
    engine::ExecContext ctx(
        engine::ExecConfig{.threads = threads, .default_partitions = threads});
    const PlanExecutor exec(&ctx, &catalog);
    for (Run& run : runs) {
      const std::string where =
          run.label + " threads=" + std::to_string(threads);
      run.options.engine = ExecEngine::kColumnar;
      Result<ExecResult> fused = exec.Execute(run.plan, run.options);
      Result<ExecResult> interp =
          ExecuteColumnarInterpreted(&ctx, &catalog, run.plan, run.options);
      ASSERT_TRUE(fused.ok()) << where << ": " << fused.status().ToString();
      ASSERT_TRUE(interp.ok()) << where << ": " << interp.status().ToString();
      ExpectBitIdentical(run.want, fused.value(), where + " [fused]");
      ExpectBitIdentical(run.want, interp.value(), where + " [interpreted]");
    }
  }
}

// ---------------------------------------------------------------------------
// Zipf-skew differential: a key-ordered table whose join fan-out and
// selectivities are wildly uneven across its batches (the skew morsel
// scheduling exists for), bit-identical at 1 and 4 threads.

struct ZipfData {
  Schema fact_schema{{{"f_key", ValueType::kInt},
                      {"f_val", ValueType::kDouble},
                      {"f_cat", ValueType::kString}}};
  Schema dim_schema{
      {{"d_key", ValueType::kInt}, {"d_weight", ValueType::kDouble}}};
  std::vector<Row> fact_rows;
  std::vector<Row> dim_rows;

  ZipfData() {
    // Key k appears ~2000/(k+1) times and rows are emitted in key order, so
    // the first batch carries enormous join fan-out and the last almost
    // none.
    constexpr int64_t kKeys = 40;
    for (int64_t k = 0; k < kKeys; ++k) {
      const int64_t copies = std::max<int64_t>(1, 2000 / (k + 1));
      for (int64_t i = 0; i < copies; ++i) {
        fact_rows.push_back(
            {Value{k}, Value{0.25 * static_cast<double>((i * 7 + k) % 101)},
             Value{std::string(k % 5 == 0 ? "hot" : "cold")}});
      }
      dim_rows.push_back(
          {Value{k}, Value{1.0 / static_cast<double>(k + 1)}});
    }
  }
};

struct ZipfCase {
  std::string label;
  PlanPtr plan;
  bool private_shapes = false;
};

std::vector<ZipfCase> ZipfCases() {
  std::vector<ZipfCase> cases;
  cases.push_back(
      {"join-filter-sum",
       SumPlan(FilterPlan(JoinPlan(ScanPlan("fact"), ScanPlan("dim"), "f_key",
                                   "d_key"),
                          And(Lt(Col("f_val"), Lit(12.0)),
                              Gt(Col("d_weight"), Lit(0.05)))),
               Mul(Col("f_val"), Col("d_weight"))),
       true});
  cases.push_back({"string-filter-count",
                   CountPlan(FilterPlan(ScanPlan("fact"),
                                        Eq(Col("f_cat"), Lit("hot")))),
                   true});
  // Rows are key-ordered, so every survivor sits in the first batch.
  cases.push_back({"key-prefix-count",
                   CountPlan(FilterPlan(ScanPlan("fact"),
                                        Lt(Col("f_key"), Lit(int64_t{2})))),
                   false});
  cases.push_back(
      {"avg", AvgPlan(ScanPlan("fact"), Add(Col("f_val"), Col("f_key"))),
       false});
  return cases;
}

TEST(ColumnarDifferentialTest, ZipfSkewBitIdentical) {
  ZipfData data;
  ASSERT_GT(data.fact_rows.size(), 2 * kBatch);
  Rng rng = Rng::ForStream(13, "fragment/zipf");
  std::vector<size_t> excluded =
      rng.SampleWithoutReplacement(data.fact_rows.size(), 60);
  std::vector<size_t> all(data.fact_rows.size());
  std::iota(all.begin(), all.end(), size_t{0});

  // Option shapes per case: plain, and the one pass with every record
  // sampled and with the excluded set sampled.
  auto shapes = [&](const ZipfCase& c) {
    std::vector<std::pair<std::string, ExecOptions>> out;
    out.push_back({"plain", ExecOptions{}});
    if (c.private_shapes) {
      out.push_back({"contrib", OnePass("fact", &all, 3)});
      out.push_back({"sprime", OnePass("fact", &excluded, 2)});
    }
    return out;
  };

  Table fact("fact", data.fact_schema, data.fact_rows);
  Table dim("dim", data.dim_schema, data.dim_rows);
  Catalog catalog{{"fact", &fact}, {"dim", &dim}};

  // Oracle: row engine, 1 thread.
  std::vector<ZipfCase> cases = ZipfCases();
  std::map<std::string, ExecResult> oracle;
  {
    engine::ExecContext ctx(
        engine::ExecConfig{.threads = 1, .default_partitions = 1});
    PlanExecutor exec(&ctx, &catalog);
    for (const ZipfCase& c : cases) {
      for (auto& [shape, opts] : shapes(c)) {
        ExecOptions o = opts;
        o.engine = ExecEngine::kRowOracle;
        Result<ExecResult> r = exec.Execute(c.plan, o);
        ASSERT_TRUE(r.ok()) << c.label << ": " << r.status().ToString();
        oracle[c.label + "/" + shape] = std::move(r.value());
      }
    }
  }

  for (size_t threads : {size_t{1}, size_t{4}}) {
    engine::ExecContext ctx(engine::ExecConfig{
        .threads = threads, .default_partitions = threads});
    PlanExecutor exec(&ctx, &catalog);
    for (const ZipfCase& c : cases) {
      for (auto& [shape, opts] : shapes(c)) {
        const std::string where = c.label + "/" + shape +
                                  " threads=" + std::to_string(threads);
        ExecOptions o = opts;
        o.engine = ExecEngine::kColumnar;
        Result<ExecResult> r = exec.Execute(c.plan, o);
        ASSERT_TRUE(r.ok()) << where << ": " << r.status().ToString();
        ExpectBitIdentical(oracle[c.label + "/" + shape], r.value(), where);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded random SPJ plans over the TPC-H schema graph.

struct ColumnInfo {
  std::string name;
  bool is_string = false;
};

struct TableInfo {
  std::string name;
  std::vector<ColumnInfo> columns;
};

struct JoinEdge {
  // Joining `right_table` onto a tree that already contains `left_table`.
  std::string left_table, left_key;
  std::string right_table, right_key;
};

const std::vector<TableInfo>& Tables() {
  static const std::vector<TableInfo> kTables = {
      {"lineitem",
       {{"l_orderkey"}, {"l_partkey"}, {"l_suppkey"}, {"l_quantity"},
        {"l_extendedprice"}, {"l_discount"}, {"l_shipdate"}, {"l_commitdate"},
        {"l_receiptdate"}, {"l_returnflag", true}}},
      {"orders",
       {{"o_orderkey"}, {"o_custkey"}, {"o_orderdate"},
        {"o_orderpriority", true}, {"o_orderstatus", true}}},
      {"customer", {{"c_custkey"}, {"c_nationkey"}, {"c_mktsegment", true}}},
      {"part", {{"p_partkey"}, {"p_brand", true}, {"p_type", true},
                {"p_size"}}},
      {"supplier", {{"s_suppkey"}, {"s_nationkey"}, {"s_complaint"}}},
      {"partsupp",
       {{"ps_partkey"}, {"ps_suppkey"}, {"ps_availqty"}, {"ps_supplycost"}}},
      {"nation", {{"n_nationkey"}, {"n_name", true}}},
  };
  return kTables;
}

const std::vector<JoinEdge>& Edges() {
  static const std::vector<JoinEdge> kEdges = {
      {"orders", "o_orderkey", "lineitem", "l_orderkey"},
      {"customer", "c_custkey", "orders", "o_custkey"},
      {"part", "p_partkey", "partsupp", "ps_partkey"},
      {"supplier", "s_suppkey", "partsupp", "ps_suppkey"},
      {"supplier", "s_suppkey", "lineitem", "l_suppkey"},
      {"part", "p_partkey", "lineitem", "l_partkey"},
      {"nation", "n_nationkey", "supplier", "s_nationkey"},
      {"nation", "n_nationkey", "customer", "c_nationkey"},
  };
  return kEdges;
}

const TableInfo& InfoFor(const std::string& table) {
  for (const TableInfo& t : Tables()) {
    if (t.name == table) return t;
  }
  ADD_FAILURE() << "unknown table " << table;
  return Tables().front();
}

// A literal drawn from an actual cell of `table.column` — guarantees the
// literal sits inside the value distribution, so comparisons split the
// table instead of being vacuously all-true/all-false.
Value SampleCell(const std::string& table, const std::string& column,
                 Rng& rng) {
  const Table& t = Dataset().table(table);
  const Row& row = t.rows()[rng.UniformU64(t.NumRows())];
  return row[t.schema().IndexOf(column)];
}

ExprPtr LitFrom(const Value& v) { return Expr::Literal(v); }

// Random typed predicate over the columns of `table`. Depth-limited;
// leaves compare a column against a same-typed literal sampled from the
// data, or test membership in a small sampled set.
ExprPtr RandomPredicate(const std::string& table, Rng& rng, int depth) {
  const TableInfo& info = InfoFor(table);
  if (depth > 0 && rng.Bernoulli(0.45)) {
    switch (rng.UniformU64(3)) {
      case 0:
        return And(RandomPredicate(table, rng, depth - 1),
                   RandomPredicate(table, rng, depth - 1));
      case 1:
        return Or(RandomPredicate(table, rng, depth - 1),
                  RandomPredicate(table, rng, depth - 1));
      default:
        return Not(RandomPredicate(table, rng, depth - 1));
    }
  }
  const ColumnInfo& col =
      info.columns[rng.UniformU64(info.columns.size())];
  if (rng.Bernoulli(0.2)) {  // membership test over sampled cells
    std::vector<Value> set;
    const size_t k = 1 + rng.UniformU64(4);
    for (size_t i = 0; i < k; ++i) {
      set.push_back(SampleCell(table, col.name, rng));
    }
    return In(Col(col.name), std::move(set));
  }
  ExprPtr lhs = Col(col.name);
  ExprPtr rhs = LitFrom(SampleCell(table, col.name, rng));
  switch (rng.UniformU64(6)) {
    case 0: return Eq(std::move(lhs), std::move(rhs));
    case 1: return Ne(std::move(lhs), std::move(rhs));
    case 2: return Lt(std::move(lhs), std::move(rhs));
    case 3: return Le(std::move(lhs), std::move(rhs));
    case 4: return Gt(std::move(lhs), std::move(rhs));
    default: return Ge(std::move(lhs), std::move(rhs));
  }
}

// Random arithmetic expression over the numeric columns of the scanned
// tables (for Sum/Avg/Min/Max roots). No division: the engines abort the
// process identically on division by zero, but a test shouldn't die.
ExprPtr RandomNumericExpr(const std::vector<std::string>& tables, Rng& rng) {
  std::vector<std::string> numeric;
  for (const std::string& t : tables) {
    for (const ColumnInfo& c : InfoFor(t).columns) {
      if (!c.is_string) numeric.push_back(c.name);
    }
  }
  ExprPtr e = Col(numeric[rng.UniformU64(numeric.size())]);
  const size_t extra = rng.UniformU64(3);
  for (size_t i = 0; i < extra; ++i) {
    ExprPtr other = rng.Bernoulli(0.5)
                        ? Col(numeric[rng.UniformU64(numeric.size())])
                        : Lit(rng.UniformDouble(-2.0, 2.0));
    switch (rng.UniformU64(3)) {
      case 0: e = Add(std::move(e), std::move(other)); break;
      case 1: e = Sub(std::move(e), std::move(other)); break;
      default: e = Mul(std::move(e), std::move(other)); break;
    }
  }
  return e;
}

struct RandomPlan {
  PlanPtr plan;
  std::vector<std::string> tables;
  bool additive = true;  // Count/Sum root (provenance-compatible)
};

RandomPlan MakeRandomPlan(Rng& rng) {
  RandomPlan out;
  // Grow a join tree by chaining schema edges; every table at most once
  // (preserves the single-private-scan invariant and unique column names).
  out.tables.push_back(Tables()[rng.UniformU64(Tables().size())].name);
  PlanPtr rel = ScanPlan(out.tables.back());
  if (rng.Bernoulli(0.6)) {
    rel = FilterPlan(rel, RandomPredicate(out.tables.back(), rng, 2));
  }
  const size_t joins = rng.UniformU64(3);  // 0..2 extra tables
  for (size_t j = 0; j < joins; ++j) {
    std::vector<const JoinEdge*> usable;
    for (const JoinEdge& e : Edges()) {
      const bool has_l = std::find(out.tables.begin(), out.tables.end(),
                                   e.left_table) != out.tables.end();
      const bool has_r = std::find(out.tables.begin(), out.tables.end(),
                                   e.right_table) != out.tables.end();
      if (has_l != has_r) usable.push_back(&e);
    }
    if (usable.empty()) break;
    const JoinEdge& e = *usable[rng.UniformU64(usable.size())];
    const bool joining_right =
        std::find(out.tables.begin(), out.tables.end(), e.right_table) ==
        out.tables.end();
    const std::string fresh = joining_right ? e.right_table : e.left_table;
    const std::string fresh_key = joining_right ? e.right_key : e.left_key;
    const std::string held_key = joining_right ? e.left_key : e.right_key;
    PlanPtr side = ScanPlan(fresh);
    if (rng.Bernoulli(0.5)) {
      side = FilterPlan(side, RandomPredicate(fresh, rng, 1));
    }
    rel = rng.Bernoulli(0.5)
              ? JoinPlan(rel, side, held_key, fresh_key)
              : JoinPlan(side, rel, fresh_key, held_key);
    out.tables.push_back(fresh);
  }
  switch (rng.UniformU64(6)) {
    case 0:
    case 1:
      out.plan = CountPlan(rel);
      break;
    case 2:
    case 3:
      out.plan = SumPlan(rel, RandomNumericExpr(out.tables, rng));
      break;
    case 4:
      out.plan = AvgPlan(rel, RandomNumericExpr(out.tables, rng));
      out.additive = false;
      break;
    default:
      out.plan = rng.Bernoulli(0.5)
                     ? MinPlan(rel, RandomNumericExpr(out.tables, rng))
                     : MaxPlan(rel, RandomNumericExpr(out.tables, rng));
      out.additive = false;
      break;
  }
  return out;
}

TEST(ColumnarDifferentialTest, RandomPlans) {
  DifferentialRunner runner;
  const tpch::TpchDataset& ds = Dataset();
  constexpr int kPlans = 50;

  for (int i = 0; i < kPlans; ++i) {
    Rng rng = Rng::ForStream(7, "columnar_diff/plan" + std::to_string(i));
    RandomPlan rp = MakeRandomPlan(rng);
    const std::string label =
        "plan" + std::to_string(i) + ": " + PlanToString(rp.plan);

    runner.Run(label + "/plain", rp.plan, ExecOptions{});

    // Provenance shapes. For non-additive roots both engines must *reject*
    // identically (Unsupported), which Run() also asserts — so don't skip.
    const std::string priv = rp.tables[rng.UniformU64(rp.tables.size())];
    const size_t n = ds.table(priv).NumRows();
    {
      const std::vector<size_t> all = AllRows(n);
      runner.Run(label + "/contrib", rp.plan,
                 OnePass(priv, &all, 1 + rng.UniformU64(4)));
    }
    if (rp.additive) {
      const SubsetRun subset(n, rng);
      runner.Run(label + "/subset", rp.plan, subset.Options(priv));
    }
    // The one pass; non-additive roots must be rejected identically.
    {
      std::vector<size_t> sample =
          rng.SampleWithoutReplacement(n, rng.UniformU64(n + 1));
      runner.Run(label + "/one-pass", rp.plan,
                 OnePass(priv, &sample, 1 + rng.UniformU64(4)));
    }
  }
}

// Errors must match too: both engines surface the same status for the
// same malformed plan.
TEST(ColumnarDifferentialTest, ErrorParity) {
  DifferentialRunner runner;

  // Unknown table.
  runner.Run("unknown-table", CountPlan(ScanPlan("nope")), ExecOptions{});
  // Unknown filter column.
  runner.Run("unknown-column",
             CountPlan(FilterPlan(ScanPlan("nation"),
                                  Gt(Col("mystery"), Lit(int64_t{3})))),
             ExecOptions{});
  // Unknown join key.
  runner.Run("unknown-join-key",
             CountPlan(JoinPlan(ScanPlan("nation"), ScanPlan("supplier"),
                                "n_nationkey", "s_missing")),
             ExecOptions{});
  // Sum without an expression.
  {
    auto broken = std::make_shared<PlanNode>();
    broken->kind = PlanKind::kAggregate;
    broken->agg = AggKind::kSum;
    broken->left = ScanPlan("nation");
    runner.Run("sum-missing-expr", broken, ExecOptions{});
  }
  // Avg over an empty relation.
  runner.Run("avg-empty",
             AvgPlan(FilterPlan(ScanPlan("nation"),
                                rel::Eq(Col("n_name"), Lit("ATLANTIS"))),
                     Col("n_nationkey")),
             ExecOptions{});
  // Min with provenance → Unsupported.
  {
    const std::vector<size_t> all =
        AllRows(Dataset().table("nation").NumRows());
    runner.Run("min-with-provenance",
               MinPlan(ScanPlan("nation"), Col("n_nationkey")),
               OnePass("nation", &all, 1));
  }
}

// ---------------------------------------------------------------------------
// The one provenance pass against plain runs over each record set.

// The release benchmark's three query templates (fixed literals), all with
// lineitem as the privacy unit.
std::vector<std::pair<std::string, PlanPtr>> ReleaseTemplates(
    const Catalog& catalog) {
  const char* sql[] = {
      "SELECT COUNT(*) FROM lineitem WHERE l_quantity >= 4 AND "
      "l_shipdate >= 120 AND l_shipdate < 2000",
      "SELECT SUM(l_extendedprice * l_discount) FROM lineitem "
      "WHERE l_shipdate >= 300 AND l_shipdate < 2200",
      "SELECT COUNT(*) FROM orders JOIN lineitem ON o_orderkey = l_orderkey "
      "WHERE o_orderdate >= 100 AND o_orderdate < 2000 AND l_quantity < 47",
  };
  std::vector<std::pair<std::string, PlanPtr>> out;
  for (const char* q : sql) {
    Result<PlanPtr> parsed = ParseSql(q);
    EXPECT_TRUE(parsed.ok()) << q;
    OptimizerOptions opt;
    opt.private_table = "lineitem";
    out.push_back({q, Optimize(parsed.value(), catalog, opt)});
  }
  return out;
}

// On every engine and pool size, one pass over the whole private table must
// reproduce, bit for bit, plain row-oracle runs over exactly each record
// set: the whole table's output and row count, partition j's output over
// its unsampled rows, and each sampled record's contribution as the output
// over that record alone (0 for records that never reach the aggregate).
TEST(ColumnarDifferentialTest, OnePassMatchesThreeRunReference) {
  const tpch::TpchDataset& ds = Dataset();
  const Catalog catalog = ds.catalog();
  engine::ExecContext ctx1(
      engine::ExecConfig{.threads = 1, .default_partitions = 1});
  engine::ExecContext ctx4(
      engine::ExecConfig{.threads = 4, .default_partitions = 4});
  PlanExecutor exec1(&ctx1, &catalog), exec4(&ctx4, &catalog);
  Rng rng = Rng::ForStream(7, "columnar_diff/one_pass_anchor");

  struct Case {
    std::string label;
    PlanPtr plan;
    std::string private_table;
    const ColumnarTable* replace = nullptr;
  };
  std::vector<Case> cases;
  for (const tpch::TpchQuery& q : tpch::AllTpchQueries()) {
    cases.push_back({q.name, q.plan, q.private_table});
  }
  for (auto& [sql, plan] : ReleaseTemplates(catalog)) {
    cases.push_back({sql, plan, "lineitem"});
  }
  // A churned private table (the replace_private_rows override).
  std::vector<size_t> dropped = rng.SampleWithoutReplacement(
      ds.table("lineitem").NumRows(), 30);
  const auto churned = Churned(ds, "lineitem", dropped);
  cases.push_back({"churned " + cases.back().label, cases.back().plan,
                   "lineitem", churned.get()});

  for (const Case& c : cases) {
    const size_t n = c.replace != nullptr
                         ? c.replace->num_rows()
                         : ds.table(c.private_table).NumRows();
    std::vector<std::vector<size_t>> samples = {
        rng.SampleWithoutReplacement(n, std::min<size_t>(n, 40)),
        {},
        rng.SampleWithoutReplacement(n, n),
    };
    for (const std::vector<size_t>& sample : samples) {
      const size_t parts = 2 + sample.size() % 3;
      ExecOptions base;
      base.engine = ExecEngine::kRowOracle;
      base.private_table = c.private_table;
      base.replace_private_rows = c.replace;
      // The reference runs share their public side through one cache.
      engine::BlockCache cache(&ctx1.metrics());
      auto output_over = [&](const std::vector<size_t>& rows) {
        ExecOptions opts = base;
        opts.include_rows = &rows;
        opts.cache = &cache;
        Result<ExecResult> r = exec1.Execute(c.plan, opts);
        EXPECT_TRUE(r.ok()) << c.label << ": " << r.status().ToString();
        return r.ok() ? r.value().output : 0.0;
      };
      Result<ExecResult> plain = exec1.Execute(c.plan, base);
      ASSERT_TRUE(plain.ok()) << c.label;

      ExecResult want;
      want.output = plain.value().output;
      want.result_rows = plain.value().result_rows;
      std::vector<std::vector<size_t>> unsampled(parts);
      for (size_t row : Complement(sample, n)) {
        unsampled[row % parts].push_back(row);
      }
      for (const std::vector<size_t>& rows : unsampled) {
        want.partition_outputs.push_back(output_over(rows));
      }
      for (size_t row : sample) {
        want.sample_contributions.push_back(output_over({row}));
      }

      ExecOptions pass = base;
      pass.sample_rows = &sample;
      pass.partitions = parts;
      for (const PlanExecutor* exec : {&exec1, &exec4}) {
        const std::string where = c.label + " sample=" +
                                  std::to_string(sample.size()) +
                                  (exec == &exec1 ? " threads=1" : " threads=4");
        pass.engine = ExecEngine::kRowOracle;
        Result<ExecResult> row = exec->Execute(c.plan, pass);
        pass.engine = ExecEngine::kColumnar;
        Result<ExecResult> col = exec->Execute(c.plan, pass);
        engine::ExecContext& ctx = exec == &exec1 ? ctx1 : ctx4;
        Result<ExecResult> interp =
            ExecuteColumnarInterpreted(&ctx, &catalog, c.plan, pass);
        // The S′ memo now holds the plan (a churned table and a sample of
        // over half the table bypass it): the same pass again scans only
        // the sampled rows, and falls back to the full pass only on a zero
        // remainder.
        Result<ExecResult> memo = Status::Internal("not run");
        const MemoDelta d =
            CountMemo(ctx, [&] { memo = exec->Execute(c.plan, pass); });
        if (c.replace != nullptr || 2 * sample.size() > n) {
          EXPECT_EQ(d.hits + d.misses, 0u) << where;
        } else if (!AnyZero(want.partition_outputs)) {
          EXPECT_EQ(d.hits, 1u) << where;
        }
        ASSERT_TRUE(row.ok() && col.ok() && interp.ok() && memo.ok()) << where;
        ExpectBitIdentical(want, row.value(), where + " [row]");
        ExpectBitIdentical(want, col.value(), where + " [columnar]");
        ExpectBitIdentical(want, interp.value(), where + " [interpreted]");
        ExpectBitIdentical(want, memo.value(), where + " [memo]");
      }
    }
  }
}

// The one pass refuses every option it cannot honour, identically on both
// engines.
TEST(ColumnarDifferentialTest, OnePassRejectsOptionCombinations) {
  const PlanPtr sum = SumPlan(ScanPlan("nation"), Col("n_nationkey"));
  const PlanPtr min = MinPlan(ScanPlan("nation"), Col("n_nationkey"));
  const std::vector<size_t> sample = {1, 3, 4};
  const std::vector<size_t> unsorted = {3, 1};
  const std::vector<size_t> duplicated = {1, 1};
  const std::vector<size_t> out_of_range = {1, 1000000};

  ExecOptions with_include = OnePass("nation", &sample, 2);
  with_include.include_rows = &sample;
  ExecOptions no_sample = OnePass("nation", nullptr, 2);

  struct Bad {
    std::string label;
    PlanPtr plan;
    ExecOptions opts;
    StatusCode code;
  };
  std::vector<Bad> bad = {
      {"with include_rows", sum, with_include, StatusCode::kInvalidArgument},
      {"partitions without sample_rows", sum, no_sample,
       StatusCode::kInvalidArgument},
      {"no partitions", sum, OnePass("nation", &sample, 0),
       StatusCode::kInvalidArgument},
      {"no private table", sum, OnePass("", &sample, 2),
       StatusCode::kInvalidArgument},
      {"unsorted", sum, OnePass("nation", &unsorted, 2),
       StatusCode::kInvalidArgument},
      {"duplicated", sum, OnePass("nation", &duplicated, 2),
       StatusCode::kInvalidArgument},
      {"out of range", sum, OnePass("nation", &out_of_range, 2),
       StatusCode::kInvalidArgument},
      // Non-additive aggregates have no provenance semantics at all.
      {"over Min", min, OnePass("nation", &sample, 2),
       StatusCode::kUnsupported},
  };

  const Catalog catalog = Dataset().catalog();
  engine::ExecContext ctx(engine::ExecConfig{.threads = 1});
  PlanExecutor exec(&ctx, &catalog);
  for (Bad& b : bad) {
    for (ExecEngine engine : {ExecEngine::kRowOracle, ExecEngine::kColumnar}) {
      b.opts.engine = engine;
      Result<ExecResult> r = exec.Execute(b.plan, b.opts);
      ASSERT_FALSE(r.ok()) << b.label;
      EXPECT_EQ(r.status().code(), b.code)
          << b.label << ": " << r.status().ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// Cost-based optimizer differential: Optimize(plan) must reproduce the
// unoptimized plan bit-for-bit — outputs, partition outputs and sampled
// records' contributions — under both engines and both pool sizes, for the TPC-H
// plans (hand-built AND lifted-to-SQL-shape) and for seeded random SPJ
// plans. Join reorder, build-side hints and conjunct reordering are all
// exercised through the same oracle.

TEST(OptimizerDifferentialTest, TpchPlansAllOptionShapes) {
  DifferentialRunner runner;
  const tpch::TpchDataset& ds = Dataset();
  Rng rng = Rng::ForStream(7, "opt_diff/tpch");
  Rng pass_rng = Rng::ForStream(7, "opt_diff/tpch/one_pass");

  for (const tpch::TpchQuery& q : tpch::AllTpchQueries()) {
    const size_t n = ds.table(q.private_table).NumRows();
    OptimizerOptions opt;
    opt.private_table = q.private_table;
    // Two optimized forms: the hand-built plan, and the plan lifted to the
    // naive SQL shape first (all filters above the joins) so pushdown and
    // reorder have real work to do.
    const PlanPtr optimized = Optimize(q.plan, runner.catalog(), opt);
    const PlanPtr from_lifted =
        Optimize(LiftFilters(q.plan), runner.catalog(), opt);

    runner.RunPair(q.name + "/plain", q.plan, optimized, ExecOptions{});
    runner.RunPair(q.name + "/plain-lifted", q.plan, from_lifted,
                   ExecOptions{});

    {
      const std::vector<size_t> all = AllRows(n);
      const ExecOptions opts = OnePass(q.private_table, &all, 1);
      runner.RunPair(q.name + "/contrib", q.plan, optimized, opts);
      runner.RunPair(q.name + "/contrib-lifted", q.plan, from_lifted, opts);
    }
    {
      std::vector<size_t> excluded =
          rng.SampleWithoutReplacement(n, std::min<size_t>(n, 25));
      runner.RunPair(q.name + "/sprime", q.plan, optimized,
                     OnePass(q.private_table, &excluded, 3));
    }
    {
      std::vector<size_t> included =
          rng.SampleWithoutReplacement(n, std::min<size_t>(n, 40));
      ExecOptions opts;
      opts.private_table = q.private_table;
      opts.include_rows = &included;
      runner.RunPair(q.name + "/sample", q.plan, optimized, opts);
    }
    {
      std::vector<size_t> sample =
          pass_rng.SampleWithoutReplacement(n, std::min<size_t>(n, 40));
      const ExecOptions opts = OnePass(q.private_table, &sample, 2);
      runner.RunPair(q.name + "/one-pass", q.plan, optimized, opts);
      runner.RunPair(q.name + "/one-pass-lifted", q.plan, from_lifted, opts);
      // The S′ memo holds the optimized plan now: another sample scans
      // only its own rows.
      std::vector<size_t> resample =
          pass_rng.SampleWithoutReplacement(n, std::min<size_t>(n, 40));
      runner.RunPair(q.name + "/one-pass-memo", q.plan, optimized,
                     OnePass(q.private_table, &resample, 2));
    }
  }
  EXPECT_GT(runner.memo_hits(), 0u);
}

TEST(OptimizerDifferentialTest, RandomPlans) {
  DifferentialRunner runner;
  const tpch::TpchDataset& ds = Dataset();
  constexpr int kPlans = 50;

  for (int i = 0; i < kPlans; ++i) {
    Rng rng = Rng::ForStream(11, "opt_diff/plan" + std::to_string(i));
    RandomPlan rp = MakeRandomPlan(rng);
    const std::string label =
        "opt-plan" + std::to_string(i) + ": " + PlanToString(rp.plan);
    const std::string priv = rp.tables[rng.UniformU64(rp.tables.size())];

    OptimizerOptions opt;
    opt.private_table = priv;
    const PlanPtr optimized = Optimize(rp.plan, runner.catalog(), opt);
    // Optimizing the lifted shape stresses pushdown + reorder together on
    // arbitrary SPJ trees; hints stay on (private_table empty) to also
    // exercise hinted joins.
    const PlanPtr from_lifted =
        Optimize(LiftFilters(rp.plan), runner.catalog());

    runner.RunPair(label + "/plain", rp.plan, optimized, ExecOptions{});
    runner.RunPair(label + "/plain-lifted", rp.plan, from_lifted,
                   ExecOptions{});

    {
      const std::vector<size_t> all = AllRows(ds.table(priv).NumRows());
      runner.RunPair(label + "/contrib", rp.plan, optimized,
                     OnePass(priv, &all, 1 + rng.UniformU64(4)));
    }
    if (rp.additive) {
      const SubsetRun subset(ds.table(priv).NumRows(), rng);
      runner.RunPair(label + "/subset", rp.plan, optimized,
                     subset.Options(priv));
    }
    {
      const size_t n = ds.table(priv).NumRows();
      std::vector<size_t> sample =
          rng.SampleWithoutReplacement(n, rng.UniformU64(n + 1));
      const size_t parts = 1 + rng.UniformU64(4);
      runner.RunPair(label + "/one-pass", rp.plan, optimized,
                     OnePass(priv, &sample, parts));
      // Same plan and partitions, another sample: an S′ memo hit.
      std::vector<size_t> resample =
          rng.SampleWithoutReplacement(n, rng.UniformU64(n + 1));
      runner.RunPair(label + "/one-pass-memo", rp.plan, optimized,
                     OnePass(priv, &resample, parts));
    }
  }
  EXPECT_GT(runner.memo_hits(), 0u);
}

// ---------------------------------------------------------------------------
// The cross-release S′ memo (PlanExecutor::Execute): a one pass the
// executor has run before scans only its sampled rows, and every output
// bit must still equal the full pass's and the row oracle's.

/// A two-column private table (id, v) for weights the TPC-H data lacks.
Table WeightTable(const std::vector<double>& weights) {
  std::vector<Row> rows;
  for (size_t i = 0; i < weights.size(); ++i) {
    rows.push_back({Value{static_cast<int64_t>(i)}, Value{weights[i]}});
  }
  return Table("t", Schema({{"id", ValueType::kInt}, {"v", ValueType::kDouble}}),
               std::move(rows));
}

// Three one passes per plan with fresh samples: the first fills the memo,
// the next two hit it (only a zero partition output may send one back to
// the full pass; a sample of over half the table skips the memo). Every
// run matches the row oracle bit for bit, over the TPC-H plans, the
// release templates and random plans, on the fused and the interpreted
// path, at 1 and 4 threads.
TEST(PlanQueryMemoTest, HitMissAndRowOracleAgreeBitForBit) {
  const tpch::TpchDataset& ds = Dataset();
  const Catalog catalog = ds.catalog();
  struct Case {
    std::string label;
    PlanPtr plan;
    std::string private_table;
  };
  std::vector<Case> cases;
  for (const tpch::TpchQuery& q : tpch::AllTpchQueries()) {
    cases.push_back({q.name, q.plan, q.private_table});
  }
  for (auto& [sql, plan] : ReleaseTemplates(catalog)) {
    cases.push_back({sql, plan, "lineitem"});
  }
  for (int i = 0; i < 30; ++i) {
    Rng rng = Rng::ForStream(7, "memo/plan" + std::to_string(i));
    RandomPlan rp = MakeRandomPlan(rng);
    if (!rp.additive) continue;
    cases.push_back({"plan" + std::to_string(i) + ": " + PlanToString(rp.plan),
                     rp.plan, rp.tables[rng.UniformU64(rp.tables.size())]});
  }

  size_t fused_hits = 0, interpreted_hits = 0;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    engine::ExecContext ctx(
        engine::ExecConfig{.threads = threads, .default_partitions = threads});
    PlanExecutor exec(&ctx, &catalog);
    Rng rng = Rng::ForStream(threads, "memo/samples");
    for (const Case& c : cases) {
      const size_t n = ds.table(c.private_table).NumRows();
      bool filled = false;
      for (int round = 0; round < 3; ++round) {
        const std::vector<size_t> sample = rng.SampleWithoutReplacement(
            n, rng.UniformU64(std::min<size_t>(n, 60) + 1));
        const std::string where = c.label + " threads=" +
                                  std::to_string(threads) + " round=" +
                                  std::to_string(round);
        ExecOptions pass = OnePass(c.private_table, &sample, 3);
        pass.engine = ExecEngine::kRowOracle;
        const Result<ExecResult> oracle = exec.Execute(c.plan, pass);
        pass.engine = ExecEngine::kColumnar;
        Result<ExecResult> got = Status::Internal("not run");
        const MemoDelta d =
            CountMemo(ctx, [&] { got = exec.Execute(c.plan, pass); });
        ASSERT_EQ(oracle.ok(), got.ok()) << where;
        if (!oracle.ok()) {
          EXPECT_EQ(oracle.status().ToString(), got.status().ToString());
          EXPECT_EQ(d.hits, 0u) << where;
          continue;
        }
        ExpectBitIdentical(oracle.value(), got.value(), where);
        if (2 * sample.size() > n) {
          EXPECT_EQ(d.hits + d.misses, 0u) << where;  // declined
          continue;
        }
        EXPECT_EQ(d.hits + d.misses, 1u) << where;
        if (!filled) {
          EXPECT_EQ(d.misses, 1u) << where;
        } else if (!AnyZero(oracle.value().partition_outputs)) {
          EXPECT_EQ(d.hits, 1u) << where;  // only a zero may fall back
        }
        filled = true;
        if (d.hits > 0) {
          ++(FusableShape(c.plan).has_value() ? fused_hits : interpreted_hits);
        }
      }
    }
  }
  EXPECT_GT(fused_hits, 0u);
  EXPECT_GT(interpreted_hits, 0u);
}

// Another literal, partition count or table uid is another entry; so is
// new data under an old table name. A copy of a table keeps its uid (it
// holds the same rows), so it still hits.
TEST(PlanQueryMemoTest, KeyCoversLiteralsPartitionsAndTableUids) {
  const tpch::TpchDataset& ds = Dataset();
  Catalog catalog = ds.catalog();
  engine::ExecContext ctx(
      engine::ExecConfig{.threads = 2, .default_partitions = 2});
  PlanExecutor exec(&ctx, &catalog);
  const std::vector<size_t> sample = {1, 5, 9, 200, 301};
  auto join_count = [](ExprPtr quantity) {
    return CountPlan(FilterPlan(
        JoinPlan(ScanPlan("orders"), ScanPlan("lineitem"), "o_orderkey",
                 "l_orderkey"),
        Ge(Col("l_quantity"), std::move(quantity))));
  };
  auto run = [&](const PlanPtr& plan, size_t parts) {
    ExecOptions pass = OnePass("lineitem", &sample, parts);
    pass.engine = ExecEngine::kRowOracle;
    const Result<ExecResult> want = exec.Execute(plan, pass);
    pass.engine = ExecEngine::kColumnar;
    Result<ExecResult> got = Status::Internal("not run");
    const MemoDelta d = CountMemo(ctx, [&] { got = exec.Execute(plan, pass); });
    EXPECT_TRUE(want.ok() && got.ok());
    if (want.ok() && got.ok()) {
      ExpectBitIdentical(want.value(), got.value(), PlanToString(plan));
    }
    return d;
  };
  const PlanPtr base = join_count(Lit(int64_t{4}));
  EXPECT_EQ(run(base, 2).misses, 1u);
  EXPECT_EQ(run(base, 2).hits, 1u);
  EXPECT_EQ(run(join_count(Lit(int64_t{4})), 2).hits, 1u);  // rebuilt plan
  EXPECT_EQ(run(join_count(Lit(int64_t{5})), 2).misses, 1u);
  EXPECT_EQ(run(join_count(Lit(4.0)), 2).misses, 1u);  // 4 and 4.0 differ
  EXPECT_EQ(run(base, 3).misses, 1u);

  const Table fewer_lineitems("lineitem", ds.table("lineitem").schema(),
                              ds.RowsWithout("lineitem", {0, 2}));
  catalog["lineitem"] = &fewer_lineitems;
  EXPECT_EQ(run(base, 2).misses, 1u);
  EXPECT_EQ(run(base, 2).hits, 1u);

  const Table fewer_orders("orders", ds.table("orders").schema(),
                           ds.RowsWithout("orders", {3}));
  catalog["orders"] = &fewer_orders;
  EXPECT_EQ(run(base, 2).misses, 1u);

  catalog = ds.catalog();
  EXPECT_EQ(run(base, 2).hits, 1u);  // the original tables' entry survived
}

// The memo's key is the optimized plan, not the SQL text: two spellings of
// one query share an entry.
TEST(PlanQueryMemoTest, EquivalentSqlSharesOneEntry) {
  const Catalog catalog = Dataset().catalog();
  engine::ExecContext ctx(
      engine::ExecConfig{.threads = 2, .default_partitions = 2});
  PlanExecutor exec(&ctx, &catalog);
  OptimizerOptions opt;
  opt.private_table = "lineitem";
  std::vector<PlanPtr> plans;
  for (const char* sql :
       {"SELECT COUNT(*) FROM lineitem WHERE l_quantity >= 4 AND "
        "l_shipdate < 2000",
        "select count(*)\n  from lineitem\n where l_shipdate < 2000 and "
        "l_quantity>=4"}) {
    Result<PlanPtr> parsed = ParseSql(sql);
    ASSERT_TRUE(parsed.ok()) << sql << ": " << parsed.status().ToString();
    plans.push_back(Optimize(parsed.value(), catalog, opt));
  }
  ASSERT_NE(plans[0], plans[1]);
  ASSERT_TRUE(PlanEquals(plans[0], plans[1]))
      << PlanToString(plans[0]) << " vs " << PlanToString(plans[1]);

  const std::vector<size_t> sample = {2, 3, 50};
  const ExecOptions pass = OnePass("lineitem", &sample, 2);
  Result<ExecResult> first = Status::Internal("not run");
  Result<ExecResult> second = Status::Internal("not run");
  EXPECT_EQ(CountMemo(ctx, [&] { first = exec.Execute(plans[0], pass); }).misses,
            1u);
  EXPECT_EQ(CountMemo(ctx, [&] { second = exec.Execute(plans[1], pass); }).hits,
            1u);
  EXPECT_EQ(exec.MemoEntries(), 1u);
  ASSERT_TRUE(first.ok() && second.ok());
  ExpectBitIdentical(first.value(), second.value(), "second spelling");
}

// PlanEquals resolves exactly what PlanFingerprint hashes.
TEST(PlanQueryMemoTest, PlanEqualsComparesStructureAndLiteralBits) {
  auto plan = [](ExprPtr lit, std::string key, AggKind agg) {
    PlanPtr join = JoinPlan(ScanPlan("orders"), ScanPlan("lineitem"),
                            std::move(key), "l_orderkey");
    PlanPtr filtered = FilterPlan(join, Lt(Col("l_discount"), std::move(lit)));
    return agg == AggKind::kCount ? CountPlan(filtered)
                                  : SumPlan(filtered, Col("l_quantity"));
  };
  const PlanPtr base = plan(Lit(0.0), "o_orderkey", AggKind::kCount);
  EXPECT_TRUE(PlanEquals(base, plan(Lit(0.0), "o_orderkey", AggKind::kCount)));
  EXPECT_FALSE(PlanEquals(base, plan(Lit(-0.0), "o_orderkey", AggKind::kCount)));
  EXPECT_FALSE(
      PlanEquals(base, plan(Lit(int64_t{0}), "o_orderkey", AggKind::kCount)));
  EXPECT_FALSE(PlanEquals(base, plan(Lit(0.0), "o_custkey", AggKind::kCount)));
  EXPECT_FALSE(PlanEquals(base, plan(Lit(0.0), "o_orderkey", AggKind::kSum)));
  EXPECT_FALSE(PlanEquals(base, nullptr));
  EXPECT_TRUE(ExprEquals(In(Col("x"), {Value{int64_t{1}}, Value{"a"}}),
                         In(Col("x"), {Value{int64_t{1}}, Value{"a"}})));
  EXPECT_FALSE(ExprEquals(In(Col("x"), {Value{int64_t{1}}}),
                          In(Col("x"), {Value{int64_t{1}}, Value{"a"}})));
}

// Churned copies and the domain pass (replace_private_rows), the row
// oracle, and samples of over half the private table never read or fill
// the memo, even once it holds their plan.
TEST(PlanQueryMemoTest, OverridesAndRowOracleBypassTheMemo) {
  const tpch::TpchDataset& ds = Dataset();
  const Catalog catalog = ds.catalog();
  engine::ExecContext ctx(
      engine::ExecConfig{.threads = 2, .default_partitions = 2});
  PlanExecutor exec(&ctx, &catalog);
  const PlanPtr plan = ReleaseTemplates(catalog).back().second;
  const std::vector<size_t> sample = {4, 8, 15, 16, 23, 42};
  const auto churned = Churned(ds, "lineitem", {1, 2, 3});

  ExecOptions oracle = OnePass("lineitem", &sample, 2);
  oracle.engine = ExecEngine::kRowOracle;
  ExecOptions replaced = OnePass("lineitem", &sample, 2);
  replaced.replace_private_rows = churned.get();
  ExecOptions replaced_oracle = replaced;
  replaced_oracle.engine = ExecEngine::kRowOracle;
  std::vector<size_t> most(ds.table("lineitem").NumRows() / 2 + 1);
  std::iota(most.begin(), most.end(), 0);
  auto bypassing_runs = [&] {
    return CountMemo(ctx, [&] {
      ASSERT_TRUE(exec.Execute(plan, oracle).ok());
      ASSERT_TRUE(exec.Execute(plan, OnePass("lineitem", &most, 2)).ok());
      Result<ExecResult> want = exec.Execute(plan, replaced_oracle);
      Result<ExecResult> got = exec.Execute(plan, replaced);
      ASSERT_TRUE(want.ok() && got.ok());
      ExpectBitIdentical(want.value(), got.value(), "churned");
    });
  };
  MemoDelta d = bypassing_runs();
  EXPECT_EQ(d.hits + d.misses, 0u);
  EXPECT_EQ(exec.MemoEntries(), 0u);

  ASSERT_TRUE(exec.Execute(plan, OnePass("lineitem", &sample, 2)).ok());
  EXPECT_EQ(exec.MemoEntries(), 1u);
  d = bypassing_runs();
  EXPECT_EQ(d.hits + d.misses, 0u);
  EXPECT_EQ(exec.MemoEntries(), 1u);
}

// A pass with a non-finite partition sum (an infinite or NaN weight) is
// never remembered. A finite sum stays exact beyond DBL_MAX, so a sum or a
// remainder that overflows the double range is remembered and hits, and
// rounds to the full pass's +inf. An exact-zero remainder while unsampled
// rows remain makes a hit run the full pass, whose bits it then returns:
// -0.0 where the remainder cancels to +0.0.
TEST(PlanQueryMemoTest, NonFiniteAndZeroRemaindersFallBackToTheFullPass) {
  engine::ExecContext ctx(
      engine::ExecConfig{.threads = 1, .default_partitions = 1});
  const PlanPtr sum_all = SumPlan(ScanPlan("t"), Col("v"));
  auto check = [&](const std::vector<double>& weights,
                   const std::vector<size_t>& fill_sample,
                   const std::vector<size_t>& sample, bool filled,
                   const char* label, bool hit = false,
                   const PlanPtr* plan = nullptr) {
    const PlanPtr& sum = plan != nullptr ? *plan : sum_all;
    SCOPED_TRACE(label);
    const Table t = WeightTable(weights);
    const Catalog catalog = {{"t", &t}};
    PlanExecutor exec(&ctx, &catalog);
    EXPECT_TRUE(exec.Execute(sum, OnePass("t", &fill_sample, 1)).ok());
    EXPECT_EQ(exec.MemoEntries(), filled ? 1u : 0u);
    const ExecOptions pass = OnePass("t", &sample, 1);
    Result<ExecResult> got = Status::Internal("not run");
    const MemoDelta d = CountMemo(ctx, [&] { got = exec.Execute(sum, pass); });
    EXPECT_EQ(d.hits, hit ? 1u : 0u);
    EXPECT_EQ(d.misses, hit ? 0u : 1u);
    // A fresh executor has an empty memo: its answer is the full pass's.
    const Result<ExecResult> want =
        PlanExecutor(&ctx, &catalog).Execute(sum, pass);
    if (!want.ok() || !got.ok()) {
      ADD_FAILURE() << "pass failed";
      return 0.0;
    }
    ExpectBitIdentical(want.value(), got.value(), label);
    return got.value().partition_outputs[0];
  };
  const double inf = std::numeric_limits<double>::infinity();
  check({1.0, inf, 3.0}, {0}, {0}, false, "infinite weight");
  check({1.0, std::nan(""), 3.0}, {0}, {0}, false, "NaN weight");
  // x = 3e308 is kept exactly; the remainder 2e308 rounds to +inf.
  EXPECT_EQ(Bits(check({1e308, 1e308, 1e308}, {0}, {0}, true,
                       "overflowing sum", /*hit=*/true)),
            Bits(inf));
  // x = 1e308 + 1e308 - 1e308; with the third row sampled, the remainder
  // 2e308 rounds to +inf.
  EXPECT_EQ(Bits(check({1e308, 1e308, -1e308}, {1}, {2}, true,
                       "overflowing remainder", /*hit=*/true)),
            Bits(inf));
  // Every unsampled row weighs -0.0: the full pass says -0.0, while x - 5
  // cancels to +0.0.
  EXPECT_EQ(Bits(check({-0.0, 5.0, -0.0}, {1}, {1}, true, "negative zero")),
            Bits(-0.0));
  // When every surviving row is sampled no row is left: +0.0 without a
  // full pass.
  const PlanPtr small =
      SumPlan(FilterPlan(ScanPlan("t"), Lt(Col("v"), Lit(50.0))), Col("v"));
  EXPECT_EQ(Bits(check({-0.0, 5.0, -0.0, 99.0, 99.0, 99.0}, {1}, {0, 1, 2},
                       true, "every survivor sampled", /*hit=*/true, &small)),
            Bits(0.0));
}

// A plan that fails never fills the memo.
TEST(PlanQueryMemoTest, ErroringPlansNeverFill) {
  const Catalog catalog = Dataset().catalog();
  engine::ExecContext ctx(
      engine::ExecConfig{.threads = 2, .default_partitions = 2});
  PlanExecutor exec(&ctx, &catalog);
  const std::vector<size_t> sample = {1, 2};
  const PlanPtr bad[] = {
      CountPlan(FilterPlan(ScanPlan("lineitem"),
                           Gt(Col("mystery"), Lit(int64_t{3})))),
      MinPlan(ScanPlan("lineitem"), Col("l_quantity")),
      CountPlan(JoinPlan(ScanPlan("nope"), ScanPlan("lineitem"), "x",
                         "l_orderkey")),
  };
  for (const PlanPtr& plan : bad) {
    for (int round = 0; round < 2; ++round) {
      EXPECT_FALSE(exec.Execute(plan, OnePass("lineitem", &sample, 2)).ok())
          << PlanToString(plan);
    }
  }
  EXPECT_EQ(exec.MemoEntries(), 0u);
  EXPECT_EQ(ctx.metrics().Snapshot().memo_hits, 0u);
}

// The memo holds at most kMemoCapacity plans and evicts the least recently
// used one first.
TEST(PlanQueryMemoTest, EntriesNeverExceedCapacity) {
  const Catalog catalog = Dataset().catalog();
  engine::ExecContext ctx(
      engine::ExecConfig{.threads = 1, .default_partitions = 1});
  PlanExecutor exec(&ctx, &catalog);
  const std::vector<size_t> sample = {7, 11};
  // Every literal keeps all rows, so every partition is non-zero.
  auto plan = [](int64_t q) {
    return CountPlan(FilterPlan(ScanPlan("lineitem"),
                                Lt(Col("l_quantity"), Lit(1000 + q))));
  };
  constexpr size_t kCap = PlanExecutor::kMemoCapacity;
  constexpr size_t kPlans = kCap + kCap / 2;
  auto run = [&](size_t q) {
    return CountMemo(ctx, [&] {
      ASSERT_TRUE(exec.Execute(plan(static_cast<int64_t>(q)),
                               OnePass("lineitem", &sample, 2))
                      .ok());
    });
  };
  // Cycle through kPlans plans twice: the second lap misses every time.
  for (size_t i = 0; i < 2 * kPlans; ++i) {
    EXPECT_EQ(run(i % kPlans).misses, 1u) << i;
    EXPECT_LE(exec.MemoEntries(), kCap);
  }
  EXPECT_EQ(exec.MemoEntries(), kCap);
  // The last kCap plans are held; the one before them was evicted.
  EXPECT_EQ(run(kPlans - 1).hits, 1u);
  EXPECT_EQ(run(kPlans - kCap).hits, 1u);
  EXPECT_EQ(run(kPlans - kCap - 1).misses, 1u);
}

// Pool threads racing on one executor: fills, hits and evictions of the
// shared memo never corrupt a result.
TEST(PlanQueryMemoTest, ConcurrentHitsAndFillsAreSafe) {
  const tpch::TpchDataset& ds = Dataset();
  const Catalog catalog = ds.catalog();
  engine::ExecContext ctx(
      engine::ExecConfig{.threads = 4, .default_partitions = 4});
  PlanExecutor exec(&ctx, &catalog);
  std::vector<PlanPtr> plans;
  for (auto& [sql, plan] : ReleaseTemplates(catalog)) plans.push_back(plan);
  for (int64_t q = 1; q <= 5; ++q) {
    plans.push_back(SumPlan(
        FilterPlan(ScanPlan("lineitem"), Lt(Col("l_quantity"), Lit(q * 9))),
        Col("l_extendedprice")));
  }
  const size_t n = ds.table("lineitem").NumRows();
  Rng rng = Rng::ForStream(9, "memo/concurrent");
  std::vector<std::vector<size_t>> samples;
  for (int i = 0; i < 5; ++i) {
    samples.push_back(rng.SampleWithoutReplacement(n, 30 + i));
  }
  auto task_options = [&](size_t i) {
    return OnePass("lineitem", &samples[i % samples.size()], 2);
  };
  constexpr size_t kTasks = 160;
  std::vector<Result<ExecResult>> want, got;
  for (size_t i = 0; i < kTasks; ++i) {
    ExecOptions opts = task_options(i);
    opts.engine = ExecEngine::kRowOracle;
    want.push_back(exec.Execute(plans[i % plans.size()], opts));
    got.push_back(Status::Internal("not run"));
  }
  ctx.pool().ParallelFor(kTasks, [&](size_t i) {
    got[i] = exec.Execute(plans[i % plans.size()], task_options(i));
  });
  for (size_t i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(want[i].ok() && got[i].ok()) << i;
    ExpectBitIdentical(want[i].value(), got[i].value(),
                       "task " + std::to_string(i));
  }
  EXPECT_GT(ctx.metrics().Snapshot().memo_hits, 0u);
  EXPECT_EQ(exec.MemoEntries(), plans.size());
}

// SamplePass keeps a slot that got one weight inline and moves it into an
// ExactSum only on a second add. Either way a slot rounds to what one
// ExactSum of its weights rounds to: one weight to itself (a NaN to the
// canonical quiet NaN, -0.0 and ±inf kept), spilled slots to the exact sum,
// an empty slot to +0.0. The per-partition sums see every weight too.
TEST(SampleSlotDifferentialTest, OneAddAndSpilledSlotsMatchExactSum) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> specials = {-0.0, 0.0, kNaN, -kNaN, kInf, -kInf,
                                        1e308, -1e-320, 0.1};
  Rng rng(41);
  const std::vector<size_t> rows = {0, 3, 4, 9, 17, 18, 40, 41, 63, 64, 100};
  for (int trial = 0; trial < 200; ++trial) {
    const size_t parts = 1 + trial % 3;
    SamplePass pass(rows, parts);
    std::vector<ExactSum> want(rows.size());
    std::vector<ExactSum> want_parts(parts);
    for (size_t k = 0; k < rows.size(); ++k) {
      // Mostly one add; some slots get none, some spill.
      const uint64_t adds = trial % 4 == 0 ? rng.UniformU64(4)
                            : rng.Bernoulli(0.8) ? 1
                                                 : rng.UniformU64(5);
      for (uint64_t a = 0; a < adds; ++a) {
        const double w = rng.Bernoulli(0.3)
                             ? specials[rng.UniformU64(specials.size())]
                             : rng.UniformDouble(-1e6, 1e6);
        pass.Add(rows[k], w);
        want[k].Add(w);
        want_parts[rows[k] % parts].Add(w);
      }
    }
    const ExecResult got =
        pass.Finish(std::vector<ExactSum>(parts), /*result_rows=*/0);
    ASSERT_EQ(got.sample_contributions.size(), rows.size());
    for (size_t k = 0; k < rows.size(); ++k) {
      EXPECT_EQ(Bits(got.sample_contributions[k]), Bits(want[k].Round()))
          << "trial " << trial << " slot " << k;
    }
    ASSERT_EQ(got.partition_totals.size(), parts);
    for (size_t p = 0; p < parts; ++p) {
      EXPECT_EQ(Bits(got.partition_totals[p].Round()),
                Bits(want_parts[p].Round()))
          << "trial " << trial << " partition " << p;
    }
  }
}

// Every morsel of a columnar pass is a launched engine task: a one pass,
// fused or interpreted, raises tasks_launched by exactly the tasks its
// phases fanned out to.
TEST(ColumnarMetricsTest, OnePassCountsEveryMorselAsATask) {
  const Catalog catalog = Dataset().catalog();
  engine::ExecContext ctx(
      engine::ExecConfig{.threads = 4, .default_partitions = 4});
  const PlanExecutor exec(&ctx, &catalog);
  const std::vector<size_t> sample = {1, 5, 8, 13, 21, 34, 55};
  for (const auto& [sql, plan] : ReleaseTemplates(catalog)) {
    const engine::MetricsSnapshot before = ctx.metrics().Snapshot();
    ASSERT_TRUE(exec.Execute(plan, OnePass("lineitem", &sample, 2)).ok());
    const engine::MetricsSnapshot delta = ctx.metrics().Snapshot() - before;
    uint64_t phase_tasks = 0;
    for (const auto& [phase, tasks] : delta.phase_tasks) phase_tasks += tasks;
    EXPECT_GT(phase_tasks, 0u) << sql;
    EXPECT_EQ(delta.tasks_launched, phase_tasks) << sql;
  }
}

}  // namespace
}  // namespace upa::rel
