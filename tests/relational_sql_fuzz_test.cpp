// Differential SQL fuzzer: ~220 seeded random single-block SELECTs over
// the TPC-H-style schema, each executed through the full stack (parser →
// optimizer → grouped lowering → engine) on the row oracle and on the
// columnar engine (fused kernels for single-table filter chains, the
// interpreted path for joins), across thread counts {1, 4}. Every cell of
// every result must agree bit-for-bit; error paths must agree on the
// status code.
//
// A second pass mutates the valid strings (truncation, token duplication,
// junk characters) and asserts the front-end always fails with a clean
// Status — never a crash — and that strings that survive mutation still
// execute cleanly.
//
// Suite name matches the CI sanitizer filters (SqlFuzz).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "engine/context.h"
#include "relational/sql_exec.h"
#include "relational/table.h"
#include "tpch/generator.h"

namespace upa::rel {
namespace {

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

// -- Random query generation ------------------------------------------------

struct NumCol {
  const char* name;
  bool integral;
  double lo, hi;  // plausible literal range (predicates may still select
                  // everything or nothing — both sides must agree anyway)
};

struct StrCol {
  const char* name;
  const std::vector<std::string>* vocab;
};

struct FuzzTable {
  const char* sql;  // FROM / JOIN clause
  std::vector<NumCol> nums;
  std::vector<StrCol> strs;
  std::vector<const char*> group_cols;  // low-cardinality keys only
};

std::vector<FuzzTable> FuzzTables() {
  static const std::vector<std::string> kReturnFlags = {"N", "R", "A"};
  static const std::vector<std::string> kOrderStatus = {"F", "O", "P"};
  std::vector<NumCol> li_nums = {
      {"l_quantity", false, 1, 51},    {"l_extendedprice", false, 900, 56000},
      {"l_discount", false, 0, 0.11},  {"l_shipdate", true, 0, 2556},
      {"l_orderkey", true, 1, 80},     {"l_partkey", true, 1, 30},
  };
  std::vector<NumCol> ord_nums = {
      {"o_orderdate", true, 0, 2556},
      {"o_orderkey", true, 1, 80},
  };
  std::vector<FuzzTable> tables;
  tables.push_back({"lineitem",
                    li_nums,
                    {{"l_returnflag", &kReturnFlags}},
                    {"l_returnflag"}});
  tables.push_back({"orders",
                    ord_nums,
                    {{"o_orderpriority", &tpch::OrderPriorities()},
                     {"o_orderstatus", &kOrderStatus}},
                    {"o_orderpriority", "o_orderstatus"}});
  tables.push_back({"part",
                    {{"p_size", true, 1, 50}, {"p_partkey", true, 1, 30}},
                    {{"p_brand", &tpch::Brands()},
                     {"p_type", &tpch::PartTypes()}},
                    {"p_brand"}});
  // Joined scopes: union of both sides' columns, one low-card key side.
  FuzzTable oj;
  oj.sql = "orders JOIN lineitem ON o_orderkey = l_orderkey";
  oj.nums = li_nums;
  oj.nums.insert(oj.nums.end(), ord_nums.begin(), ord_nums.end());
  oj.strs = {{"l_returnflag", &kReturnFlags},
             {"o_orderpriority", &tpch::OrderPriorities()}};
  oj.group_cols = {"o_orderpriority", "l_returnflag"};
  tables.push_back(oj);
  FuzzTable pj;
  pj.sql = "lineitem JOIN part ON l_partkey = p_partkey";
  pj.nums = li_nums;
  pj.nums.push_back({"p_size", true, 1, 50});
  pj.strs = {{"p_brand", &tpch::Brands()}, {"l_returnflag", &kReturnFlags}};
  pj.group_cols = {"p_brand"};
  tables.push_back(pj);
  return tables;
}

std::string FmtNum(const NumCol& c, Rng& rng) {
  if (c.integral) {
    return std::to_string(rng.UniformInt(static_cast<int64_t>(c.lo),
                                         static_cast<int64_t>(c.hi)));
  }
  double v = rng.UniformDouble(c.lo, c.hi);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

/// A random numeric expression over the table's numeric columns (the
/// aggregate argument); depth ≤ 2 keeps fused fast-paths and generic
/// fallbacks both reachable.
std::string RandomNumExpr(const FuzzTable& t, Rng& rng, int depth = 0) {
  const NumCol& c = t.nums[rng.UniformU64(t.nums.size())];
  if (depth >= 1 || rng.Bernoulli(0.45)) return c.name;
  const char* ops[] = {" * ", " + ", " - "};
  const char* op = ops[rng.UniformU64(3)];
  std::string rhs = rng.Bernoulli(0.5) ? RandomNumExpr(t, rng, depth + 1)
                                       : FmtNum(c, rng);
  return std::string(c.name) + op + rhs;
}

std::string RandomConjunct(const FuzzTable& t, Rng& rng) {
  static const char* kCmps[] = {"<", "<=", ">", ">=", "=", "<>", "!="};
  double pick = rng.UniformDouble();
  if (pick < 0.55 || t.strs.empty()) {
    const NumCol& c = t.nums[rng.UniformU64(t.nums.size())];
    const char* cmp = kCmps[rng.UniformU64(7)];
    std::string lit = FmtNum(c, rng);
    // Both operand orders: the fused compiler mirrors literal-on-left.
    if (rng.Bernoulli(0.25)) {
      return lit + " " + cmp + " " + c.name;
    }
    if (rng.Bernoulli(0.15)) {  // IN list over integers
      std::string in = std::string(c.name) + " IN (";
      size_t n = 1 + rng.UniformU64(3);
      for (size_t i = 0; i < n; ++i) {
        if (i) in += ", ";
        in += FmtNum(c, rng);
      }
      return in + ")";
    }
    return std::string(c.name) + " " + cmp + " " + lit;
  }
  const StrCol& c = t.strs[rng.UniformU64(t.strs.size())];
  const std::string& lit = (*c.vocab)[rng.UniformU64(c.vocab->size())];
  if (rng.Bernoulli(0.2)) {  // absent literal: dict boundary miss
    return std::string(c.name) + " = 'ZZ-" + lit + "'";
  }
  const char* cmp = kCmps[rng.UniformU64(7)];
  return std::string(c.name) + " " + cmp + " '" + lit + "'";
}

std::string RandomAgg(const FuzzTable& t, Rng& rng) {
  double pick = rng.UniformDouble();
  if (pick < 0.25) return "COUNT(*)";
  const char* fn = pick < 0.65 ? "SUM" : (pick < 0.80 ? "AVG"
                                          : pick < 0.90 ? "MIN" : "MAX");
  return std::string(fn) + "(" + RandomNumExpr(t, rng) + ")";
}

std::string RandomQuery(const std::vector<FuzzTable>& tables, Rng& rng) {
  const FuzzTable& t = tables[rng.UniformU64(tables.size())];
  const bool grouped = rng.Bernoulli(0.45) && !t.group_cols.empty();
  std::vector<std::string> keys;
  if (grouped) {
    keys.push_back(t.group_cols[rng.UniformU64(t.group_cols.size())]);
    if (t.group_cols.size() > 1 && rng.Bernoulli(0.3)) {
      const char* extra = t.group_cols[rng.UniformU64(t.group_cols.size())];
      if (extra != keys[0]) keys.push_back(extra);
    }
  }

  std::string sql = "SELECT ";
  size_t num_aggs = 1 + rng.UniformU64(grouped ? 2 : 3);
  std::vector<std::string> selectable = keys;  // keys first, then aggs
  for (const std::string& k : keys) sql += k + ", ";
  for (size_t i = 0; i < num_aggs; ++i) {
    if (i) sql += ", ";
    sql += RandomAgg(t, rng);
    if (rng.Bernoulli(0.5)) {
      sql += " AS a" + std::to_string(i);
      selectable.push_back("a" + std::to_string(i));
    }
  }
  sql += " FROM " + std::string(t.sql);

  size_t num_conjuncts = rng.UniformU64(4);  // 0..3
  for (size_t i = 0; i < num_conjuncts; ++i) {
    sql += i == 0 ? " WHERE " : " AND ";
    if (rng.Bernoulli(0.12)) {  // OR / NOT exercise the generic kernels
      sql += "(" + RandomConjunct(t, rng) + " OR " + RandomConjunct(t, rng) +
             ")";
    } else if (rng.Bernoulli(0.08)) {
      sql += "NOT " + RandomConjunct(t, rng);
    } else {
      sql += RandomConjunct(t, rng);
    }
  }

  if (grouped) {
    sql += " GROUP BY " + keys[0];
    if (keys.size() > 1) sql += ", " + keys[1];
    if (rng.Bernoulli(0.3)) {
      sql += " HAVING COUNT(*) > " + std::to_string(rng.UniformU64(5));
    }
    if (rng.Bernoulli(0.5)) {
      const std::string& key = selectable[rng.UniformU64(selectable.size())];
      sql += " ORDER BY " + key + (rng.Bernoulli(0.5) ? " DESC" : "");
      if (rng.Bernoulli(0.3)) sql += ", " + keys[0] + " ASC";
    }
    if (rng.Bernoulli(0.3)) {
      sql += " LIMIT " + std::to_string(rng.UniformU64(8));
    }
  }
  return sql;
}

// -- Differential harness ---------------------------------------------------

void ExpectSameResult(const SqlResultSet& want, const Result<SqlResultSet>& got,
                      const std::string& what) {
  ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
  const SqlResultSet& have = got.value();
  ASSERT_EQ(want.columns, have.columns) << what;
  ASSERT_EQ(want.rows.size(), have.rows.size()) << what;
  for (size_t r = 0; r < want.rows.size(); ++r) {
    ASSERT_EQ(want.rows[r].size(), have.rows[r].size()) << what;
    for (size_t c = 0; c < want.rows[r].size(); ++c) {
      const Value& a = want.rows[r][c];
      const Value& b = have.rows[r][c];
      ASSERT_EQ(a.index(), b.index()) << what << " row " << r << " col " << c;
      if (std::holds_alternative<double>(a)) {
        EXPECT_EQ(Bits(std::get<double>(a)), Bits(std::get<double>(b)))
            << what << " row " << r << " col " << c;
      } else {
        EXPECT_TRUE(ValueEq{}(a, b)) << what << " row " << r << " col " << c;
      }
    }
  }
}

TEST(SqlFuzzDifferentialTest, RandomQueriesBitIdenticalAcrossEngines) {
  tpch::TpchDataset data(tpch::TpchConfig{.num_orders = 60, .seed = 7});
  Catalog catalog = data.catalog();
  std::vector<FuzzTable> tables = FuzzTables();

  Rng rng = Rng::ForStream(20260808, "sql_fuzz/queries");
  std::vector<std::string> queries;
  for (size_t i = 0; i < 220; ++i) queries.push_back(RandomQuery(tables, rng));

  // Oracle pass: row engine, single thread, parse-once sanity.
  std::vector<SqlResultSet> oracle(queries.size());
  std::vector<Status> oracle_status(queries.size());
  {
    engine::ExecContext ctx(
        engine::ExecConfig{.threads = 1, .default_partitions = 1});
    for (size_t i = 0; i < queries.size(); ++i) {
      Result<SqlResultSet> r =
          ExecuteSql(&ctx, catalog, queries[i], ExecEngine::kRowOracle);
      oracle_status[i] = r.status();
      ASSERT_TRUE(r.ok() ||
                  r.status().code() == StatusCode::kFailedPrecondition)
          << queries[i] << ": " << r.status().ToString();
      if (r.ok()) oracle[i] = std::move(r).value();
    }
  }

  for (size_t threads : {size_t{1}, size_t{4}}) {
    engine::ExecContext ctx(
        engine::ExecConfig{.threads = threads, .default_partitions = threads});
    for (size_t i = 0; i < queries.size(); ++i) {
      std::string what =
          queries[i] + " [threads=" + std::to_string(threads) + "]";
      Result<SqlResultSet> r =
          ExecuteSql(&ctx, catalog, queries[i], ExecEngine::kColumnar);
      if (!oracle_status[i].ok()) {
        ASSERT_FALSE(r.ok()) << what;
        EXPECT_EQ(oracle_status[i].code(), r.status().code()) << what;
        continue;
      }
      ExpectSameResult(oracle[i], r, what);
    }
  }
}

TEST(SqlFuzzDifferentialTest, MutatedQueriesFailCleanly) {
  tpch::TpchDataset data(tpch::TpchConfig{.num_orders = 30, .seed = 9});
  Catalog catalog = data.catalog();
  std::vector<FuzzTable> tables = FuzzTables();
  engine::ExecContext ctx(
      engine::ExecConfig{.threads = 2, .default_partitions = 2});

  Rng rng = Rng::ForStream(20260808, "sql_fuzz/mutations");
  size_t parse_failures = 0;
  for (size_t i = 0; i < 150; ++i) {
    std::string sql = RandomQuery(tables, rng);
    switch (rng.UniformU64(4)) {
      case 0:  // truncate mid-token
        sql = sql.substr(0, rng.UniformU64(sql.size()));
        break;
      case 1: {  // splice junk into the middle
        const char* junk[] = {"~", "'", ",", "))", "SELECT", "IN", "GROUP"};
        sql.insert(rng.UniformU64(sql.size()),
                   junk[rng.UniformU64(7)]);
        break;
      }
      case 2: {  // duplicate a chunk
        size_t a = rng.UniformU64(sql.size());
        size_t len = rng.UniformU64(sql.size() - a);
        sql.insert(a, sql.substr(a, len));
        break;
      }
      default: {  // delete a chunk
        size_t a = rng.UniformU64(sql.size());
        sql.erase(a, rng.UniformU64(8));
        break;
      }
    }
    // The only contract: a clean Status or a clean result, never a crash
    // or an abort. (Mutations can leave the string valid.)
    Result<SqlResultSet> r =
        ExecuteSql(&ctx, catalog, sql, ExecEngine::kColumnar);
    if (!r.ok()) {
      ++parse_failures;
      EXPECT_FALSE(r.status().message().empty()) << sql;
    }
  }
  // Sanity: the mutator actually produces plenty of malformed inputs.
  EXPECT_GE(parse_failures, 50u);
}

}  // namespace
}  // namespace upa::rel
