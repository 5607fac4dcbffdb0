#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "upa/exclusion.h"
#include "upa/types.h"

namespace upa::core {
namespace {

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

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

// Combine fixes each cell's bits the way CellSum does, whatever operand
// order the compiler picks for a + b: over every pair of a grid of signed
// zeros, infinities, NaNs of both signs (with and without payload), the
// smallest subnormals and the largest finite values, at dim 1 and dim 5.
TEST(VecSumTest, CombineSumsEachCellAsCellSumDoes) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double payload = std::bit_cast<double>(uint64_t{0x7ff8'0000'0000'0123});
  const double sub = std::numeric_limits<double>::denorm_min();
  const double big = std::numeric_limits<double>::max();
  const double grid[] = {0.0, -0.0, inf,  -inf, nan,  -nan,
                         payload, -payload, sub, -sub, big, -big};
  constexpr size_t kGrid = std::size(grid);
  size_t cells = 0;
  for (size_t dim : {size_t{1}, size_t{5}}) {
    for (size_t x = 0; x < kGrid; ++x) {
      for (size_t y = 0; y < kGrid; ++y) {
        Vec a(dim), b(dim);
        for (size_t d = 0; d < dim; ++d) {
          a[d] = grid[(x + d) % kGrid];
          b[d] = grid[(y + 2 * d) % kGrid];
        }
        const Vec sum = VecSum::Combine(a, b);
        ASSERT_EQ(sum.size(), dim);
        for (size_t d = 0; d < dim; ++d, ++cells) {
          EXPECT_EQ(Bits(sum[d]), Bits(CellSum(a[d], b[d])))
              << "dim=" << dim << " a=" << a[d] << " b=" << b[d];
        }
      }
    }
  }
  EXPECT_EQ(cells, 864u);
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
  const std::vector<double> mapped{7.0};
  // The identity row is -0.0: every output of a one-row scan is that row.
  for (const auto& excl : {NaiveExclusionAggregate(mapped, 1),
                           ExclusionAggregate(mapped, 1)}) {
    ASSERT_EQ(excl.size(), 1u);
    EXPECT_EQ(Bits(excl[0]), Bits(-0.0));
  }
}

TEST(ExclusionTest, KnownSmallCase) {
  const std::vector<double> mapped{1.0, 2.0, 4.0};
  auto excl = ExclusionAggregate(mapped, 1);
  ASSERT_EQ(excl.size(), 3u);
  EXPECT_DOUBLE_EQ(excl[0], 6.0);
  EXPECT_DOUBLE_EQ(excl[1], 5.0);
  EXPECT_DOUBLE_EQ(excl[2], 3.0);
}

TEST(ExclusionTest, TotalAggregateMatchesSum) {
  const VecRows mapped{{1.0, 10.0, 2.0, 20.0, 3.0, 30.0}, {}};
  EXPECT_EQ(TotalAggregate(mapped, 2), (Vec{6.0, 60.0}));
  // Identity rows alone reduce to the identity, not to -0.0 cells.
  VecRows nothing;
  nothing.Append({}, 2);
  nothing.Append({}, 2);
  EXPECT_EQ(TotalAggregate(nothing, 2), VecSum::Identity());
}

/// n rows of `dim` uniform values in [-10, 10), row-major.
std::vector<double> RandomRows(Rng& rng, size_t n, size_t dim) {
  std::vector<double> rows(n * dim);
  for (double& v : rows) v = rng.UniformDouble(-10, 10);
  return rows;
}

// Property: for every element, excl[i] ⊕ m[i] == total.
class ExclusionInvariantSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ExclusionInvariantSweep, ExclusionPlusSelfIsTotal) {
  auto [n, dim] = GetParam();
  Rng rng(300 + n + dim);
  const std::vector<double> mapped = RandomRows(rng, n, dim);
  const Vec total = TotalAggregate(VecRows{mapped, {}}, dim);
  for (const auto& excl : {NaiveExclusionAggregate(mapped, dim),
                           ExclusionAggregate(mapped, dim)}) {
    ASSERT_EQ(excl.size(), mapped.size());
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < dim; ++j) {
        const double restored = excl[i * dim + j] + mapped[i * dim + j];
        EXPECT_NEAR(restored, total[j], 1e-9) << "i=" << i << " j=" << j;
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
std::vector<std::vector<double>> ScanOnWorkers(
    const std::vector<double>& mapped, size_t dim, size_t threads) {
  ThreadPool pool(threads);
  std::vector<std::vector<double>> out(threads);
  pool.ParallelFor(threads, [&](size_t t) {
    std::vector<double> copy = mapped;
    out[t] = ExclusionAggregate(copy, dim);
  });
  return out;
}

// The paper's loop, the scan on the calling thread and the scan on pool
// workers must agree to floating-point near-equality.
class StrategyAgreementSweep : public ::testing::TestWithParam<int> {};

TEST_P(StrategyAgreementSweep, NaiveEqualsScanEqualsParallelScan) {
  int n = GetParam();
  Rng rng(500 + n);
  std::vector<double> mapped(2 * n);
  for (int i = 0; i < n; ++i) {
    mapped[2 * i] = rng.UniformDouble(-1, 1);
    mapped[2 * i + 1] = rng.Normal(0, 3);
  }
  auto naive = NaiveExclusionAggregate(mapped, 2);
  auto scan = ExclusionAggregate(mapped, 2);
  ASSERT_EQ(naive.size(), scan.size());
  for (size_t i = 0; i < naive.size(); ++i) {
    EXPECT_NEAR(naive[i], scan[i], 1e-9);
  }
  for (const std::vector<double>& par : ScanOnWorkers(mapped, 2, 4)) {
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
  std::vector<double> mapped(3 * n);
  for (double& v : mapped) v = rng.Normal(0, 5);
  auto reference = ExclusionAggregate(mapped, 3);
  for (size_t threads : {1u, 2u, 4u, 7u}) {
    // operator== on the buffers compares doubles exactly: bit-identity, not
    // tolerance.
    for (const std::vector<double>& par : ScanOnWorkers(mapped, 3, threads)) {
      EXPECT_EQ(par, reference) << "threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ParallelScanDeterminismSweep,
                         ::testing::Values(1, 2, 63, 64, 65, 500, 1000));

// The per-record Vec scan the flat one replaced, kept here as the
// reference it must match bit for bit: one Vec per prefix, suffix and
// combine, the empty Vec as the identity.
std::vector<Vec> VecScanReference(const std::vector<Vec>& mapped) {
  constexpr size_t kMaxBlocks = 64;  // ExclusionAggregate's block bound
  const size_t n = mapped.size();
  const size_t per = std::max<size_t>(1, (n + kMaxBlocks - 1) / kMaxBlocks);
  const size_t blocks = (n + per - 1) / per;
  auto block_range = [&](size_t c) {
    return std::pair<size_t, size_t>{c * per, std::min(n, (c + 1) * per)};
  };
  std::vector<std::vector<Vec>> local_prefix(blocks), local_suffix(blocks);
  for (size_t c = 0; c < blocks; ++c) {
    auto [b, e] = block_range(c);
    const size_t len = e - b;
    local_prefix[c].resize(len + 1);
    local_suffix[c].resize(len + 1);
    for (size_t k = 0; k < len; ++k) {
      local_prefix[c][k + 1] =
          VecSum::Combine(local_prefix[c][k], mapped[b + k]);
    }
    for (size_t k = len; k-- > 0;) {
      local_suffix[c][k] =
          VecSum::Combine(local_suffix[c][k + 1], mapped[b + k]);
    }
  }
  std::vector<Vec> before(blocks), after(blocks);
  for (size_t c = 1; c < blocks; ++c) {
    before[c] = VecSum::Combine(before[c - 1], local_prefix[c - 1].back());
  }
  for (size_t c = blocks - 1; c-- > 0;) {
    after[c] = VecSum::Combine(after[c + 1], local_suffix[c + 1].front());
  }
  std::vector<Vec> out(n);
  for (size_t c = 0; c < blocks; ++c) {
    auto [b, e] = block_range(c);
    for (size_t k = 0; k < e - b; ++k) {
      out[b + k] = VecSum::Combine(
          VecSum::Combine(before[c], local_prefix[c][k]),
          VecSum::Combine(local_suffix[c][k + 1], after[c]));
    }
  }
  return out;
}

/// One mapped record: mostly uniform values, with -0.0, +0.0, NaN, ±inf
/// and (when `allow_empty`) the empty Vec mixed in.
Vec SpecialRecord(Rng& rng, size_t dim, bool allow_empty) {
  if (allow_empty && rng.Bernoulli(0.15)) return {};
  Vec v(dim);
  for (double& x : v) {
    const uint64_t pick = rng.UniformU64(40);
    x = pick == 0   ? -0.0
        : pick == 1 ? 0.0
        : pick == 2 ? std::numeric_limits<double>::quiet_NaN()
        : pick == 3 ? std::numeric_limits<double>::infinity()
        : pick == 4 ? -std::numeric_limits<double>::infinity()
        : pick < 15 ? -0.0 * rng.UniformDouble(0, 1)  // more signed zeros
                    : rng.UniformDouble(-1e3, 1e3);
  }
  return v;
}

/// Bits of a flat row, and of the reference's Vec (the identity: -0.0s).
/// Both sum each cell through CellSum, so a NaN's sign is compared too.
std::vector<uint64_t> RowBits(const double* row, size_t dim) {
  std::vector<uint64_t> bits(dim);
  for (size_t d = 0; d < dim; ++d) bits[d] = Bits(row[d]);
  return bits;
}
std::vector<uint64_t> VecBits(const Vec& v, size_t dim) {
  return v.empty() ? std::vector<uint64_t>(dim, Bits(-0.0))
                   : RowBits(v.data(), dim);
}

// The flat folds fix what the Vec scan left to the compiler: a NaN sum is
// its first NaN operand, else the hardware's NaN for inf - inf.
TEST(ExclusionDifferentialTest, CellSumPropagatesTheFirstNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Bits(CellSum(-nan, nan)), Bits(-nan));
  EXPECT_EQ(Bits(CellSum(nan, -nan)), Bits(nan));
  EXPECT_EQ(Bits(CellSum(1.0, -nan)), Bits(-nan));
  EXPECT_TRUE(std::isnan(CellSum(inf, -inf)));
  EXPECT_EQ(Bits(CellSum(-0.0, -0.0)), Bits(-0.0));
  EXPECT_EQ(Bits(CellSum(-0.0, 0.0)), Bits(0.0));
  EXPECT_EQ(Bits(CellSum(2.5, -0.0)), Bits(2.5));
}

// The flat scan against the Vec scan it replaced, bit for bit, and
// against the paper's loop: dim 1 and dim > 1, signed
// zeros, NaN, ±inf, records that map to the empty Vec (flattened to
// identity rows), and n = 1 to past the 64-block bound.
TEST(ExclusionDifferentialTest, FlatScanMatchesVecScanBitForBit) {
  Rng rng(77);
  for (size_t dim : {size_t{1}, size_t{3}}) {
    for (size_t n : {size_t{1}, size_t{2}, size_t{5}, size_t{64},
                     size_t{65}, size_t{130}, size_t{1000}}) {
      for (bool allow_empty : {false, true}) {
        std::vector<Vec> records(n);
        VecRows flat;
        for (Vec& r : records) {
          r = SpecialRecord(rng, dim, allow_empty);
          flat.Append(r, dim);
        }
        const std::vector<Vec> want = VecScanReference(records);
        const std::vector<double> got = ExclusionAggregate(flat.values, dim);
        const std::vector<double> naive =
            NaiveExclusionAggregate(flat.values, dim);
        ASSERT_EQ(got.size(), n * dim);
        for (size_t i = 0; i < n; ++i) {
          const std::string what = "dim=" + std::to_string(dim) +
                                   " n=" + std::to_string(n) +
                                   " i=" + std::to_string(i);
          EXPECT_EQ(RowBits(got.data() + i * dim, dim), VecBits(want[i], dim))
              << what;
          // An output is the identity iff no other record holds a value.
          const size_t others = flat.CountValues(n) - !flat.IsIdentity(i);
          EXPECT_EQ(want[i].empty(), others == 0) << what;
          for (size_t d = 0; d < dim; ++d) {
            const double s = got[i * dim + d], v = naive[i * dim + d];
            // A NaN's sign depends on the order it arose in (inf - inf
            // or a NaN operand), so only NaN-ness is order-free.
            if (std::isnan(s)) {
              EXPECT_TRUE(std::isnan(v)) << what;
            } else if (std::isinf(s)) {
              EXPECT_EQ(s, v) << what;
            } else {
              EXPECT_NEAR(s, v, 1e-6 * std::max(1.0, std::fabs(v))) << what;
            }
          }
        }
        // The total, by the same left fold.
        Vec want_total = VecSum::Reduce(records);
        Vec got_total = TotalAggregate(flat, dim);
        ASSERT_EQ(want_total.size(), got_total.size());
        for (size_t d = 0; d < want_total.size(); ++d) {
          EXPECT_EQ(Bits(want_total[d]), Bits(got_total[d]));
        }
      }
    }
  }
}

}  // namespace
}  // namespace upa::core
