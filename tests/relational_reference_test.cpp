// Differential testing of PlanExecutor against a deliberately naive
// reference interpreter (nested loops, no engine, no hashing, no
// parallelism) on randomized tables and plans — the executor and the
// reference must agree on every aggregate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "relational/executor.h"
#include "relational/plan.h"

namespace upa::rel {
namespace {

// ---------------------------------------------------------------------------
// Reference interpreter
// ---------------------------------------------------------------------------

struct RefRelation {
  Schema schema;
  std::vector<Row> rows;
};

RefRelation RefEval(const PlanPtr& plan, const Catalog& catalog) {
  switch (plan->kind) {
    case PlanKind::kScan: {
      const Table* t = catalog.at(plan->table);
      return {t->schema(), t->rows()};
    }
    case PlanKind::kFilter: {
      RefRelation child = RefEval(plan->left, catalog);
      auto pred = BindPredicate(plan->predicate, child.schema);
      RefRelation out{child.schema, {}};
      for (const Row& r : child.rows) {
        if (pred(r)) out.rows.push_back(r);
      }
      return out;
    }
    case PlanKind::kJoin: {
      RefRelation l = RefEval(plan->left, catalog);
      RefRelation r = RefEval(plan->right, catalog);
      size_t li = l.schema.IndexOf(plan->left_key);
      size_t ri = r.schema.IndexOf(plan->right_key);
      RefRelation out{Schema::Concat(l.schema, r.schema), {}};
      for (const Row& lr : l.rows) {
        for (const Row& rr : r.rows) {
          if (AsInt(lr[li]) == AsInt(rr[ri])) {
            Row joined = lr;
            joined.insert(joined.end(), rr.begin(), rr.end());
            out.rows.push_back(std::move(joined));
          }
        }
      }
      return out;
    }
    case PlanKind::kAggregate:
      UPA_CHECK_MSG(false, "aggregate below root in reference interpreter");
  }
  return {};
}

double RefAggregate(const PlanPtr& plan, const Catalog& catalog) {
  UPA_CHECK(plan->kind == PlanKind::kAggregate);
  RefRelation rel = RefEval(plan->left, catalog);
  if (plan->agg == AggKind::kCount) {
    return static_cast<double>(rel.rows.size());
  }
  auto value_of = BindNumeric(plan->agg_expr, rel.schema);
  double sum = 0.0;
  double mn = std::numeric_limits<double>::infinity();
  double mx = -mn;
  for (const Row& r : rel.rows) {
    double v = value_of(r);
    sum += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  switch (plan->agg) {
    case AggKind::kSum:
      return sum;
    case AggKind::kAvg:
      return rel.rows.empty() ? 0.0 : sum / rel.rows.size();
    case AggKind::kMin:
      return mn;
    case AggKind::kMax:
      return mx;
    default:
      return 0.0;
  }
}

// ---------------------------------------------------------------------------
// Random table / plan generation
// ---------------------------------------------------------------------------

std::unique_ptr<Table> RandomTable(const std::string& name, size_t rows,
                                   int key_range, Rng& rng) {
  Schema schema({{name + "_k", ValueType::kInt},
                 {name + "_a", ValueType::kInt},
                 {name + "_x", ValueType::kDouble}});
  std::vector<Row> data;
  data.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    data.push_back(Row{
        Value{static_cast<int64_t>(rng.UniformU64(key_range))},
        Value{rng.UniformInt(0, 9)},
        Value{rng.UniformDouble(-5.0, 5.0)},
    });
  }
  return std::make_unique<Table>(name, std::move(schema), std::move(data));
}

ExprPtr RandomPredicate(const std::string& table, Rng& rng) {
  switch (rng.UniformU64(4)) {
    case 0:
      return Lt(Col(table + "_a"), Lit(rng.UniformInt(1, 9)));
    case 1:
      return Ge(Col(table + "_x"), Lit(rng.UniformDouble(-4.0, 4.0)));
    case 2:
      return And(Ge(Col(table + "_a"), Lit(int64_t{2})),
                 Lt(Col(table + "_x"), Lit(2.5)));
    default:
      return Ne(Col(table + "_a"), Lit(rng.UniformInt(0, 9)));
  }
}

struct FuzzCase {
  std::unique_ptr<Table> t1, t2;
  Catalog catalog;
  PlanPtr plan;
};

FuzzCase MakeFuzzCase(uint64_t seed) {
  Rng rng(seed);
  FuzzCase fc;
  fc.t1 = RandomTable("t1", 30 + rng.UniformU64(40), 12, rng);
  fc.t2 = RandomTable("t2", 20 + rng.UniformU64(30), 12, rng);
  fc.catalog = {{"t1", fc.t1.get()}, {"t2", fc.t2.get()}};

  PlanPtr rel = ScanPlan("t1");
  if (rng.Bernoulli(0.7)) rel = FilterPlan(rel, RandomPredicate("t1", rng));
  if (rng.Bernoulli(0.7)) {
    PlanPtr right = ScanPlan("t2");
    if (rng.Bernoulli(0.5)) {
      right = FilterPlan(right, RandomPredicate("t2", rng));
    }
    rel = JoinPlan(rel, right, "t1_k", "t2_k");
    if (rng.Bernoulli(0.3)) rel = FilterPlan(rel, RandomPredicate("t2", rng));
  }

  switch (rng.UniformU64(5)) {
    case 0:
      fc.plan = CountPlan(rel);
      break;
    case 1:
      fc.plan = SumPlan(rel, Mul(Col("t1_x"), Lit(2.0)));
      break;
    case 2:
      fc.plan = AvgPlan(rel, Col("t1_x"));
      break;
    case 3:
      fc.plan = MinPlan(rel, Col("t1_x"));
      break;
    default:
      fc.plan = MaxPlan(rel, Add(Col("t1_x"), Col("t1_a")));
      break;
  }
  return fc;
}

// ---------------------------------------------------------------------------

class ExecutorFuzzSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorFuzzSweep, ExecutorMatchesReference) {
  FuzzCase fc = MakeFuzzCase(GetParam());
  engine::ExecContext ctx(
      engine::ExecConfig{.threads = 2, .default_partitions = 3});
  PlanExecutor executor(&ctx, &fc.catalog);

  auto result = executor.Execute(fc.plan);
  double reference = 0.0;
  bool ref_empty = false;
  // The executor rejects Avg/Min/Max over empty relations; mirror that.
  if (fc.plan->agg != AggKind::kCount && fc.plan->agg != AggKind::kSum) {
    RefRelation rel = RefEval(fc.plan->left, fc.catalog);
    ref_empty = rel.rows.empty();
  }
  if (ref_empty) {
    EXPECT_FALSE(result.ok()) << PlanToString(fc.plan);
    return;
  }
  reference = RefAggregate(fc.plan, fc.catalog);
  ASSERT_TRUE(result.ok()) << PlanToString(fc.plan) << ": "
                           << result.status().ToString();
  EXPECT_NEAR(result.value().output, reference,
              1e-9 * std::max(1.0, std::fabs(reference)))
      << PlanToString(fc.plan);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorFuzzSweep,
                         ::testing::Range<uint64_t>(0, 40));

// Contribution fuzz: for additive aggregates, the one provenance pass must
// match the reference interpreter on both engines — each record's
// contribution (every record sampled) against the re-execution delta
// without it, and each partition output (a random sample and partition
// count) against the aggregate over that partition's unsampled records.
class ContributionFuzzSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ContributionFuzzSweep, ContributionsMatchReferenceDeltas) {
  Rng rng(GetParam() + 500);
  FuzzCase fc;
  fc.t1 = RandomTable("t1", 25, 8, rng);
  fc.t2 = RandomTable("t2", 15, 8, rng);
  fc.catalog = {{"t1", fc.t1.get()}, {"t2", fc.t2.get()}};
  PlanPtr rel = JoinPlan(FilterPlan(ScanPlan("t1"),
                                    Ge(Col("t1_a"), Lit(int64_t{2}))),
                         ScanPlan("t2"), "t1_k", "t2_k");
  fc.plan = rng.Bernoulli(0.5) ? CountPlan(rel)
                               : SumPlan(rel, Col("t2_x"));
  const size_t n = fc.t1->NumRows();
  const std::vector<size_t> sample =
      rng.SampleWithoutReplacement(n, rng.UniformU64(n + 1));
  const size_t parts = 1 + rng.UniformU64(4);

  // Reference: rebuild t1 from the rows `keep` accepts.
  auto ref_over = [&](const std::function<bool(size_t)>& keep) {
    std::vector<Row> rows;
    for (size_t i = 0; i < n; ++i) {
      if (keep(i)) rows.push_back(fc.t1->rows()[i]);
    }
    Table t1("t1", fc.t1->schema(), std::move(rows));
    Catalog cat{{"t1", &t1}, {"t2", fc.t2.get()}};
    return RefAggregate(fc.plan, cat);
  };
  const double full_ref = RefAggregate(fc.plan, fc.catalog);
  std::vector<double> ref_without(n), ref_partition(parts);
  for (size_t i = 0; i < n; ++i) {
    ref_without[i] = ref_over([i](size_t j) { return j != i; });
  }
  for (size_t p = 0; p < parts; ++p) {
    ref_partition[p] = ref_over([&](size_t i) {
      return i % parts == p &&
             !std::binary_search(sample.begin(), sample.end(), i);
    });
  }

  engine::ExecContext ctx(
      engine::ExecConfig{.threads = 2, .default_partitions = 2});
  PlanExecutor executor(&ctx, &fc.catalog);
  std::vector<size_t> all(n);
  std::iota(all.begin(), all.end(), size_t{0});
  for (ExecEngine engine : {ExecEngine::kRowOracle, ExecEngine::kColumnar}) {
    SCOPED_TRACE(engine == ExecEngine::kRowOracle ? "row" : "columnar");
    ExecOptions opts;
    opts.engine = engine;
    opts.private_table = "t1";
    opts.sample_rows = &all;
    opts.partitions = 1;
    auto full = executor.Execute(fc.plan, opts);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ASSERT_EQ(full.value().sample_contributions.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(full_ref - full.value().sample_contributions[i],
                  ref_without[i], 1e-9)
          << "row " << i << " of " << PlanToString(fc.plan);
    }

    opts.sample_rows = &sample;
    opts.partitions = parts;
    auto pass = executor.Execute(fc.plan, opts);
    ASSERT_TRUE(pass.ok()) << pass.status().ToString();
    ASSERT_EQ(pass.value().partition_outputs.size(), parts);
    for (size_t p = 0; p < parts; ++p) {
      EXPECT_NEAR(pass.value().partition_outputs[p], ref_partition[p], 1e-9)
          << "partition " << p << " of " << parts << ", "
          << sample.size() << " sampled, " << PlanToString(fc.plan);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContributionFuzzSweep,
                         ::testing::Range<uint64_t>(0, 10));

}  // namespace
}  // namespace upa::rel
