#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "upa/exclusion.h"
#include "upa/types.h"

namespace upa::core {
namespace {

TEST(VecSumTest, IdentityIsNeutralBothSides) {
  Vec v{1.0, 2.0};
  EXPECT_EQ(VecSum::Combine(VecSum::Identity(), v), v);
  EXPECT_EQ(VecSum::Combine(v, VecSum::Identity()), v);
}

TEST(VecSumTest, CombinesElementwise) {
  Vec a{1.0, 2.0, 3.0};
  Vec b{10.0, 20.0, 30.0};
  EXPECT_EQ(VecSum::Combine(a, b), (Vec{11.0, 22.0, 33.0}));
}

TEST(VecSumTest, SubtractInvertsCombine) {
  Vec a{5.0, 7.0};
  Vec b{2.0, 3.0};
  Vec combined = VecSum::Combine(a, b);
  EXPECT_EQ(VecSum::Subtract(combined, b), a);
}

TEST(VecSumTest, SubtractFromIdentityNegates) {
  Vec b{2.0, -3.0};
  EXPECT_EQ(VecSum::Subtract(VecSum::Identity(), b), (Vec{-2.0, 3.0}));
}

TEST(VecSumTest, ReduceSequence) {
  std::vector<Vec> vs{{1.0}, {2.0}, {3.0}};
  EXPECT_EQ(VecSum::Reduce(vs), (Vec{6.0}));
  EXPECT_EQ(VecSum::Reduce({}), VecSum::Identity());
}

TEST(ScalarHelpersTest, ScalarOfAndNorms) {
  EXPECT_DOUBLE_EQ(ScalarOf(Vec{4.5, 9.9}), 4.5);
  EXPECT_DOUBLE_EQ(ScalarOf(VecSum::Identity()), 0.0);
  EXPECT_DOUBLE_EQ(L2Norm(Vec{3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(L2Norm({}), 0.0);
}

// Commutativity + associativity of the shipped reducer — the properties
// UPA's whole derivation rests on (paper §II-C).
TEST(VecSumPropertyTest, CommutativeAndAssociative) {
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    Vec a(3), b(3), c(3);
    for (int j = 0; j < 3; ++j) {
      a[j] = rng.UniformDouble(-5, 5);
      b[j] = rng.UniformDouble(-5, 5);
      c[j] = rng.UniformDouble(-5, 5);
    }
    Vec ab = VecSum::Combine(a, b);
    Vec ba = VecSum::Combine(b, a);
    EXPECT_EQ(ab, ba);
    Vec ab_c = VecSum::Combine(VecSum::Combine(a, b), c);
    Vec a_bc = VecSum::Combine(a, VecSum::Combine(b, c));
    for (int j = 0; j < 3; ++j) EXPECT_NEAR(ab_c[j], a_bc[j], 1e-12);
  }
}

TEST(ExclusionTest, SingleElementExcludesToIdentity) {
  std::vector<Vec> mapped{{7.0}};
  for (const auto& excl :
       {NaiveExclusionAggregate(mapped), ExclusionAggregate(mapped)}) {
    ASSERT_EQ(excl.size(), 1u);
    EXPECT_EQ(excl[0], VecSum::Identity());
  }
}

TEST(ExclusionTest, KnownSmallCase) {
  std::vector<Vec> mapped{{1.0}, {2.0}, {4.0}};
  auto excl = ExclusionAggregate(mapped);
  ASSERT_EQ(excl.size(), 3u);
  EXPECT_DOUBLE_EQ(excl[0][0], 6.0);
  EXPECT_DOUBLE_EQ(excl[1][0], 5.0);
  EXPECT_DOUBLE_EQ(excl[2][0], 3.0);
}

TEST(ExclusionTest, TotalAggregateMatchesSum) {
  std::vector<Vec> mapped{{1.0, 10.0}, {2.0, 20.0}, {3.0, 30.0}};
  EXPECT_EQ(TotalAggregate(mapped), (Vec{6.0, 60.0}));
}

// Property: for every element, excl[i] ⊕ m[i] == total.
class ExclusionInvariantSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ExclusionInvariantSweep, ExclusionPlusSelfIsTotal) {
  auto [n, dim] = GetParam();
  Rng rng(300 + n + dim);
  std::vector<Vec> mapped(n, Vec(dim));
  for (auto& m : mapped) {
    for (double& v : m) v = rng.UniformDouble(-10, 10);
  }
  Vec total = TotalAggregate(mapped);
  for (const auto& excl :
       {NaiveExclusionAggregate(mapped), ExclusionAggregate(mapped)}) {
    ASSERT_EQ(excl.size(), static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      Vec restored = VecSum::Combine(excl[i], mapped[i]);
      ASSERT_EQ(restored.size(), total.size());
      for (size_t j = 0; j < total.size(); ++j) {
        EXPECT_NEAR(restored[j], total[j], 1e-9) << "i=" << i << " j=" << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ExclusionInvariantSweep,
    ::testing::Values(std::pair{1, 1}, std::pair{2, 1}, std::pair{7, 3},
                      std::pair{64, 2}, std::pair{200, 5}));

// Runs the scan `threads` times concurrently through a `threads`-thread
// pool, each call on its own copy of the input: the runner calls it inline
// on whichever service worker runs the release, so it must be a pure
// function of its input with no shared state.
std::vector<std::vector<Vec>> ScanOnWorkers(const std::vector<Vec>& mapped,
                                            size_t threads) {
  ThreadPool pool(threads);
  std::vector<std::vector<Vec>> out(threads);
  pool.ParallelFor(threads, [&](size_t t) {
    std::vector<Vec> copy = mapped;
    out[t] = ExclusionAggregate(copy);
  });
  return out;
}

// The paper's loop, the scan on the calling thread and the scan on pool
// workers must agree to floating-point near-equality.
class StrategyAgreementSweep : public ::testing::TestWithParam<int> {};

TEST_P(StrategyAgreementSweep, NaiveEqualsScanEqualsParallelScan) {
  int n = GetParam();
  Rng rng(500 + n);
  std::vector<Vec> mapped(n, Vec(2));
  for (auto& m : mapped) {
    m[0] = rng.UniformDouble(-1, 1);
    m[1] = rng.Normal(0, 3);
  }
  auto naive = NaiveExclusionAggregate(mapped);
  auto scan = ExclusionAggregate(mapped);
  ASSERT_EQ(naive.size(), scan.size());
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(naive[i].size(), scan[i].size());
    for (size_t j = 0; j < naive[i].size(); ++j) {
      EXPECT_NEAR(naive[i][j], scan[i][j], 1e-9);
    }
  }
  for (const std::vector<Vec>& par : ScanOnWorkers(mapped, 4)) {
    EXPECT_EQ(par, scan);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, StrategyAgreementSweep,
                         ::testing::Values(1, 2, 3, 10, 100, 500));

// The scan's contract: block boundaries and combine orders are fixed by n
// alone, so the result is BIT-identical wherever it runs — on the calling
// thread or on the workers of a pool of any size.
class ParallelScanDeterminismSweep : public ::testing::TestWithParam<int> {};

TEST_P(ParallelScanDeterminismSweep, BitIdenticalAcrossPoolSizes) {
  int n = GetParam();
  Rng rng(900 + n);
  std::vector<Vec> mapped(n, Vec(3));
  for (auto& m : mapped) {
    for (double& v : m) v = rng.Normal(0, 5);
  }
  auto reference = ExclusionAggregate(mapped);
  for (size_t threads : {1u, 2u, 4u, 7u}) {
    // operator== on Vec compares doubles exactly: bit-identity, not
    // tolerance.
    for (const std::vector<Vec>& par : ScanOnWorkers(mapped, threads)) {
      EXPECT_EQ(par, reference) << "threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ParallelScanDeterminismSweep,
                         ::testing::Values(1, 2, 63, 64, 65, 500, 1000));

}  // namespace
}  // namespace upa::core
