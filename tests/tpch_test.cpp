// TPC-H generator invariants and query-plan sanity over generated data.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "relational/columnar.h"
#include "relational/executor.h"
#include "tpch/generator.h"
#include "tpch/queries.h"

namespace upa::tpch {
namespace {

TpchConfig SmallConfig(uint64_t seed = 1) {
  TpchConfig cfg;
  cfg.num_orders = 500;
  cfg.seed = seed;
  return cfg;
}

class TpchTest : public ::testing::Test {
 protected:
  TpchTest()
      : data_(SmallConfig()),
        ctx_(engine::ExecConfig{.threads = 2, .default_partitions = 3}),
        catalog_(data_.catalog()),
        executor_(&ctx_, &catalog_) {}

  TpchDataset data_;
  engine::ExecContext ctx_;
  rel::Catalog catalog_;
  rel::PlanExecutor executor_;
};

TEST_F(TpchTest, TableSizesFollowConfig) {
  EXPECT_EQ(data_.orders().NumRows(), 500u);
  EXPECT_EQ(data_.nation().NumRows(), TpchConfig::kNumNations);
  EXPECT_EQ(data_.customer().NumRows(), SmallConfig().num_customers());
  EXPECT_EQ(data_.part().NumRows(), SmallConfig().num_parts());
  EXPECT_EQ(data_.supplier().NumRows(), SmallConfig().num_suppliers());
  EXPECT_GE(data_.lineitem().NumRows(), data_.orders().NumRows());
  EXPECT_GE(data_.partsupp().NumRows(), data_.part().NumRows());
}

TEST_F(TpchTest, GenerationIsDeterministic) {
  TpchDataset again(SmallConfig());
  EXPECT_EQ(again.lineitem().NumRows(), data_.lineitem().NumRows());
  EXPECT_EQ(again.lineitem().rows()[0], data_.lineitem().rows()[0]);
  EXPECT_EQ(again.orders().rows()[42], data_.orders().rows()[42]);
}

TEST_F(TpchTest, DifferentSeedsDiffer) {
  TpchDataset other(SmallConfig(2));
  EXPECT_NE(other.lineitem().rows()[0], data_.lineitem().rows()[0]);
}

TEST_F(TpchTest, ForeignKeysResolve) {
  // Every lineitem orderkey refers to an existing order.
  size_t okey_idx = data_.lineitem().schema().IndexOf("l_orderkey");
  for (const auto& row : data_.lineitem().rows()) {
    int64_t k = rel::AsInt(row[okey_idx]);
    EXPECT_GE(k, 1);
    EXPECT_LE(k, static_cast<int64_t>(data_.orders().NumRows()));
  }
  // Every partsupp refers to existing part and supplier.
  size_t pk = data_.partsupp().schema().IndexOf("ps_partkey");
  size_t sk = data_.partsupp().schema().IndexOf("ps_suppkey");
  for (const auto& row : data_.partsupp().rows()) {
    EXPECT_LE(rel::AsInt(row[pk]),
              static_cast<int64_t>(data_.part().NumRows()));
    EXPECT_LE(rel::AsInt(row[sk]),
              static_cast<int64_t>(data_.supplier().NumRows()));
  }
}

TEST_F(TpchTest, DatesWithinSpan) {
  size_t ship = data_.lineitem().schema().IndexOf("l_shipdate");
  size_t commit = data_.lineitem().schema().IndexOf("l_commitdate");
  size_t receipt = data_.lineitem().schema().IndexOf("l_receiptdate");
  for (const auto& row : data_.lineitem().rows()) {
    for (size_t c : {ship, commit, receipt}) {
      int64_t d = rel::AsInt(row[c]);
      EXPECT_GE(d, 0);
      EXPECT_LT(d, kDateSpanDays);
    }
  }
}

TEST_F(TpchTest, ReferenceSkewProducesFrequencyGap) {
  // Zipf-skewed supplier references: the hottest supplier key must be much
  // more frequent than a uniform share.
  size_t max_freq = data_.lineitem().MaxFrequency("l_suppkey");
  double uniform_share = static_cast<double>(data_.lineitem().NumRows()) /
                         static_cast<double>(data_.supplier().NumRows());
  EXPECT_GT(static_cast<double>(max_freq), 2.0 * uniform_share);
}

TEST_F(TpchTest, SampleRowMatchesSchemas) {
  Rng rng(5);
  for (const char* table :
       {"lineitem", "orders", "partsupp", "customer", "supplier", "part"}) {
    rel::Row row = data_.SampleRow(table, rng);
    EXPECT_EQ(row.size(), data_.table(table).schema().NumColumns()) << table;
  }
}

TEST_F(TpchTest, SampledOrderKeysAreFresh) {
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    rel::Row row = data_.SampleRow("orders", rng);
    EXPECT_GT(rel::AsInt(row[0]),
              static_cast<int64_t>(data_.orders().NumRows()));
  }
}

TEST_F(TpchTest, RowsWithoutRemovesExactly) {
  std::vector<size_t> remove{0, 5, 10};
  auto rows = data_.RowsWithout("orders", remove);
  EXPECT_EQ(rows.size(), data_.orders().NumRows() - 3);
  EXPECT_EQ(rows[0], data_.orders().rows()[1]);
}

TEST_F(TpchTest, AllQueriesExecuteAndProduceSaneOutputs) {
  for (const TpchQuery& q : AllTpchQueries()) {
    auto r = executor_.Execute(q.plan);
    ASSERT_TRUE(r.ok()) << q.name << ": " << r.status().ToString();
    EXPECT_GE(r.value().output, 0.0) << q.name;
    if (q.name == "TPCH1") {
      EXPECT_DOUBLE_EQ(r.value().output,
                       static_cast<double>(data_.lineitem().NumRows()));
    }
  }
}

TEST_F(TpchTest, QueriesAreSelective) {
  // Q16/Q21 must filter most records (the paper's explanation for their
  // low UPA overhead); their outputs are far below the raw join sizes.
  auto q21 = executor_.Execute(MakeQ21().plan);
  ASSERT_TRUE(q21.ok());
  EXPECT_LT(q21.value().output,
            static_cast<double>(data_.lineitem().NumRows()) * 0.2);
}

TEST_F(TpchTest, PrivateTablesAreScannedExactlyOnce) {
  for (const TpchQuery& q : AllTpchQueries()) {
    // The one provenance pass refuses a private table scanned more than
    // once.
    const std::vector<size_t> none;
    rel::ExecOptions opts;
    opts.private_table = q.private_table;
    opts.sample_rows = &none;
    opts.partitions = 1;
    auto r = executor_.Execute(q.plan, opts);
    ASSERT_TRUE(r.ok()) << q.name << ": " << r.status().ToString();
  }
}

TEST_F(TpchTest, QueryMetadataMatchesPaperTable2) {
  auto queries = AllTpchQueries();
  std::set<std::string> count_queries, arithmetic;
  for (const auto& q : queries) {
    if (q.query_type == "Count") {
      count_queries.insert(q.name);
      EXPECT_TRUE(q.flex_supported) << q.name;
    } else {
      arithmetic.insert(q.name);
      EXPECT_FALSE(q.flex_supported) << q.name;
    }
  }
  EXPECT_EQ(count_queries,
            (std::set<std::string>{"TPCH1", "TPCH4", "TPCH13", "TPCH16",
                                   "TPCH21"}));
  EXPECT_EQ(arithmetic, (std::set<std::string>{"TPCH6", "TPCH11"}));
}

TEST_F(TpchTest, PlanShapesMatchPaperDescription) {
  // Q21: three joins, three filters (our collapsed form).
  rel::PlanStats q21 = rel::AnalyzePlan(MakeQ21().plan);
  EXPECT_EQ(q21.num_joins, 3u);
  EXPECT_EQ(q21.num_filters, 3u);
  // Q16: two joins, filters present.
  rel::PlanStats q16 = rel::AnalyzePlan(MakeQ16().plan);
  EXPECT_EQ(q16.num_joins, 2u);
  EXPECT_GE(q16.num_filters, 2u);
  // Q1: no joins, no filters.
  rel::PlanStats q1 = rel::AnalyzePlan(MakeQ1().plan);
  EXPECT_EQ(q1.num_joins, 0u);
  EXPECT_EQ(q1.num_filters, 0u);
}

/// Every bit of two columnar tables: schema, row count, payloads and
/// dictionaries.
void ExpectSameColumnarTable(const rel::ColumnarTable& want,
                             const rel::ColumnarTable& got,
                             const std::string& what) {
  ASSERT_EQ(want.schema().ToString(), got.schema().ToString()) << what;
  ASSERT_EQ(want.num_rows(), got.num_rows()) << what;
  for (size_t c = 0; c < want.schema().NumColumns(); ++c) {
    const rel::Column& w = want.column(c);
    const rel::Column& g = got.column(c);
    const std::string col = what + " " + want.schema().column(c).name;
    ASSERT_EQ(w.type, g.type) << col;
    EXPECT_EQ(w.ints, g.ints) << col;
    ASSERT_EQ(w.doubles.size(), g.doubles.size()) << col;
    for (size_t i = 0; i < w.doubles.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(w.doubles[i]),
                std::bit_cast<uint64_t>(g.doubles[i]))
          << col << " row " << i;
    }
    EXPECT_EQ(w.codes, g.codes) << col;
    ASSERT_EQ(w.dict == nullptr, g.dict == nullptr) << col;
    if (w.dict != nullptr) {
      EXPECT_EQ(*w.dict, *g.dict) << col;
    }
  }
}

// The release's domain pass draws its records straight into columns. For
// every table with a record domain, that table is the one Build makes of
// the same draws taken as SampleRow rows — payload bits and dictionaries —
// and its rows read back are Value-identical to SampleRow's (what the row
// oracle reads). A table without a domain is refused, not aborted on.
TEST(DomainColumnsDifferentialTest, SampleColumnsMatchesBuildOfSampleRows) {
  const TpchDataset data(SmallConfig(3));
  for (const char* table :
       {"lineitem", "orders", "partsupp", "customer", "supplier", "part"}) {
    for (size_t n : {size_t{1}, size_t{40}, size_t{1000}}) {
      const std::string what = std::string(table) + " n=" + std::to_string(n);
      Rng row_rng = Rng::ForStream(n, std::string("domain/") + table);
      Rng column_rng = row_rng;
      std::vector<rel::Row> rows;
      for (size_t i = 0; i < n; ++i) {
        rows.push_back(data.SampleRow(table, row_rng));
      }
      Result<std::shared_ptr<const rel::ColumnarTable>> got =
          data.SampleColumns(table, n, column_rng);
      ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
      // Both ways consumed the same draws.
      EXPECT_EQ(row_rng.NextU64(), column_rng.NextU64()) << what;
      const auto want =
          rel::ColumnarTable::Build(data.table(table).schema(), rows);
      ExpectSameColumnarTable(*want, *got.value(), what);
      for (size_t i = 0; i < n; ++i) {
        const rel::Row back = got.value()->RowAt(i);
        ASSERT_EQ(back.size(), rows[i].size()) << what;
        for (size_t c = 0; c < back.size(); ++c) {
          EXPECT_EQ(back[c].index(), rows[i][c].index()) << what;
          EXPECT_TRUE(rel::ValueEquals(back[c], rows[i][c])) << what;
        }
      }
    }
  }
  Rng rng(1);
  Result<std::shared_ptr<const rel::ColumnarTable>> nation =
      data.SampleColumns("nation", 5, rng);
  ASSERT_FALSE(nation.ok());
  EXPECT_EQ(nation.status().code(), StatusCode::kUnsupported);
  EXPECT_EQ(data.SampleColumns("no_such_table", 5, rng).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace upa::tpch
