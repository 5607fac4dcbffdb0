// Table's lazily-memoized metadata (column stats, columnar form) is read
// from pool threads during FLEX analysis and plan execution, so first-use
// computation must be thread-safe. These tests hammer the memoization from
// many threads at once — under TSan they'd flag any unguarded cache — and
// check the cached answers themselves.
#include "relational/table.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "relational/columnar.h"

namespace upa::rel {
namespace {

Table MakeTable() {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 2000; ++i) {
    rows.push_back({Value{i % 7}, Value{static_cast<double>(i) * 0.5},
                    Value{std::string(i % 2 == 0 ? "even" : "odd")}});
  }
  return Table("t",
               Schema({{"k", ValueType::kInt},
                       {"w", ValueType::kDouble},
                       {"tag", ValueType::kString}}),
               std::move(rows));
}

TEST(TableStatsTest, StatsValues) {
  Table t = MakeTable();
  EXPECT_EQ(t.DistinctCount("k"), 7u);
  // 2000 rows over 7 residues: residues 0..4 appear 286 times, 5 and 6
  // appear 285 — ceil(2000/7) = 286.
  EXPECT_EQ(t.MaxFrequency("k"), 286u);
  EXPECT_EQ(t.DistinctCount("tag"), 2u);
  EXPECT_EQ(t.MaxFrequency("tag"), 1000u);
  EXPECT_EQ(t.DistinctCount("w"), 2000u);
  EXPECT_EQ(t.MaxFrequency("w"), 1u);
}

TEST(TableStatsTest, ConcurrentFirstUseIsSafeAndConsistent) {
  // Fresh table per iteration so every round races the *first* computation,
  // not a warm cache.
  for (int round = 0; round < 8; ++round) {
    Table t = MakeTable();
    constexpr int kThreads = 8;
    std::vector<size_t> max_freq(kThreads), distinct(kThreads);
    std::vector<std::shared_ptr<const ColumnarTable>> columnar(kThreads);

    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        // Interleave all three memoized entry points.
        max_freq[w] = t.MaxFrequency(w % 2 == 0 ? "k" : "tag");
        columnar[w] = t.Columnar();
        distinct[w] = t.DistinctCount(w % 2 == 0 ? "k" : "tag");
      });
    }
    for (std::thread& w : workers) w.join();

    for (int w = 0; w < kThreads; ++w) {
      EXPECT_EQ(max_freq[w], w % 2 == 0 ? 286u : 1000u);
      EXPECT_EQ(distinct[w], w % 2 == 0 ? 7u : 2u);
      ASSERT_NE(columnar[w], nullptr);
      // Memoization must converge on ONE columnar instance.
      EXPECT_EQ(columnar[w].get(), columnar[0].get());
    }
    EXPECT_EQ(columnar[0]->num_rows(), 2000u);
  }
}

TEST(TableStatsTest, NumericStatsCarryMinMaxAndHistogram) {
  Table t = MakeTable();
  const ColumnStats k = t.Stats("k");
  EXPECT_TRUE(k.numeric);
  EXPECT_DOUBLE_EQ(k.min, 0.0);
  EXPECT_DOUBLE_EQ(k.max, 6.0);
  EXPECT_EQ(k.distinct, 7u);
  ASSERT_EQ(k.histogram.size(), ColumnStats::kHistogramBuckets);
  size_t total = 0;
  for (size_t c : k.histogram) total += c;
  EXPECT_EQ(total, 2000u);

  const ColumnStats w = t.Stats("w");
  EXPECT_TRUE(w.numeric);
  EXPECT_DOUBLE_EQ(w.min, 0.0);
  EXPECT_DOUBLE_EQ(w.max, 999.5);

  // Strings carry frequency stats but no numeric histogram.
  const ColumnStats tag = t.Stats("tag");
  EXPECT_FALSE(tag.numeric);
  EXPECT_TRUE(tag.histogram.empty());
}

TEST(TableStatsTest, FractionBelowInterpolates) {
  Table t = MakeTable();
  const ColumnStats k = t.Stats("k");
  EXPECT_DOUBLE_EQ(k.FractionBelow(0.0), 0.0);    // bound at min
  EXPECT_DOUBLE_EQ(k.FractionBelow(-5.0), 0.0);
  EXPECT_DOUBLE_EQ(k.FractionBelow(7.0), 1.0);    // bound past max
  // k = i % 7 over 2000 rows: 858 rows (286 each of 0,1,2) lie strictly
  // below 3.0, and 3.0 lands exactly on a bucket edge — no interpolation.
  EXPECT_DOUBLE_EQ(k.FractionBelow(3.0), 858.0 / 2000.0);

  // w = i * 0.5 is uniform on [0, 999.5]: the midpoint splits ~half.
  const ColumnStats w = t.Stats("w");
  EXPECT_NEAR(w.FractionBelow(999.5 / 2), 0.5, 0.01);
  // Monotone in the bound.
  double prev = 0.0;
  for (double b = 0.0; b <= 1000.0; b += 73.0) {
    const double f = w.FractionBelow(b);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

// ReleaseCaches drops the memoized columnar form (PlanQueryMemoTest uses it
// to make the next pass rebuild through the columnar/build fault site): the
// next Columnar() call builds a new instance of the same columns, and the
// memo then holds that instance.
TEST(TableStatsTest, ReleaseCachesRebuildsTheSameColumns) {
  Table t = MakeTable();
  std::shared_ptr<const ColumnarTable> before = t.Columnar();
  const std::vector<std::string> columns = {"k", "w", "tag"};
  std::vector<ColumnStats> stats_before;
  for (const std::string& c : columns) stats_before.push_back(t.Stats(c));

  t.ReleaseCaches();
  std::shared_ptr<const ColumnarTable> after = t.Columnar();
  ASSERT_NE(after, nullptr);
  EXPECT_NE(after.get(), before.get());
  // The memo holds the rebuilt instance.
  EXPECT_EQ(t.Columnar().get(), after.get());

  // Same payloads, bit for bit.
  ASSERT_EQ(after->num_rows(), before->num_rows());
  for (size_t c = 0; c < columns.size(); ++c) {
    SCOPED_TRACE(columns[c]);
    const Column& a = before->column(c);
    const Column& b = after->column(c);
    ASSERT_EQ(a.type, b.type);
    EXPECT_EQ(a.ints, b.ints);
    ASSERT_EQ(a.doubles.size(), b.doubles.size());
    for (size_t i = 0; i < a.doubles.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(a.doubles[i]),
                std::bit_cast<uint64_t>(b.doubles[i]));
    }
    EXPECT_EQ(a.codes, b.codes);
    ASSERT_EQ(a.dict == nullptr, b.dict == nullptr);
    if (a.dict != nullptr) {
      EXPECT_EQ(*a.dict, *b.dict);
    }

    const ColumnStats& sa = stats_before[c];
    const ColumnStats sb = t.Stats(columns[c]);
    EXPECT_EQ(sa.max_frequency, sb.max_frequency);
    EXPECT_EQ(sa.distinct, sb.distinct);
    EXPECT_EQ(sa.numeric, sb.numeric);
    EXPECT_EQ(sa.min, sb.min);
    EXPECT_EQ(sa.max, sb.max);
    EXPECT_EQ(sa.histogram, sb.histogram);
  }
}

}  // namespace
}  // namespace upa::rel
