#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace upa {
namespace {

TEST(SplitMix64Test, DeterministicSequence) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64Test, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Pcg32Test, KnownStreamIsStable) {
  Pcg32 g(12345, 6789);
  std::vector<uint32_t> first(5);
  for (auto& v : first) v = g.Next();
  Pcg32 h(12345, 6789);
  for (uint32_t v : first) EXPECT_EQ(v, h.Next());
}

TEST(Pcg32Test, StreamsAreIndependent) {
  Pcg32 a(7, 1), b(7, 2);
  int equal = 0;
  for (int i = 0; i < 256; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ForStreamIsDeterministicPerName) {
  Rng a = Rng::ForStream(99, "alpha");
  Rng b = Rng::ForStream(99, "alpha");
  Rng c = Rng::ForStream(99, "beta");
  EXPECT_EQ(a.NextU64(), b.NextU64());
  Rng a2 = Rng::ForStream(99, "alpha");
  EXPECT_NE(a2.NextU64(), c.NextU64());
}

TEST(RngTest, UniformU64RespectsBound) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformU64(17), 17u);
  }
}

TEST(RngTest, UniformU64CoversAllResidues) {
  Rng rng(2);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformU64(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformDoubleMeanIsHalf) {
  Rng rng(5);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.UniformDouble();
  EXPECT_NEAR(Mean(xs), 0.5, 0.01);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(6);
  std::vector<double> xs(50000);
  for (auto& x : xs) x = rng.Normal(2.0, 3.0);
  EXPECT_NEAR(Mean(xs), 2.0, 0.05);
  EXPECT_NEAR(StdDevPopulation(xs), 3.0, 0.05);
}

TEST(RngTest, LaplaceIsSymmetricWithRightScale) {
  Rng rng(7);
  std::vector<double> xs(50000);
  for (auto& x : xs) x = rng.Laplace(2.0);
  EXPECT_NEAR(Mean(xs), 0.0, 0.05);
  // Var of Laplace(b) is 2 b^2 = 8 → sd ~ 2.828.
  EXPECT_NEAR(StdDevPopulation(xs), std::sqrt(8.0), 0.1);
}

TEST(RngTest, LaplaceZeroScaleIsZero) {
  Rng rng(8);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.Laplace(0.0), 0.0);
}

TEST(RngTest, ExponentialMeanIsInverseRate) {
  Rng rng(9);
  std::vector<double> xs(30000);
  for (auto& x : xs) x = rng.Exponential(4.0);
  EXPECT_NEAR(Mean(xs), 0.25, 0.01);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(10);
  int hits = 0;
  const int kN = 40000;
  for (int i = 0; i < kN; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(RngTest, ZipfStaysInRangeAndIsSkewed) {
  Rng rng(11);
  const ZipfSampler zipf(100, 1.2);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = zipf.Draw(rng);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 100u);
    counts[v]++;
  }
  // Rank 1 should dominate rank 50 heavily under s=1.2.
  EXPECT_GT(counts[1], 10 * std::max(counts[50], 1));
}

TEST(RngTest, ZipfZeroExponentIsRoughlyUniform) {
  Rng rng(12);
  const ZipfSampler zipf(10, 0.0);
  std::map<uint64_t, int> counts;
  const int kN = 50000;
  for (int i = 0; i < kN; ++i) counts[zipf.Draw(rng)]++;
  for (uint64_t k = 1; k <= 10; ++k) {
    EXPECT_NEAR(counts[k] / static_cast<double>(kN), 0.1, 0.02) << "k=" << k;
  }
}

TEST(RngTest, SampleWithoutReplacementProperties) {
  Rng rng(13);
  auto sample = rng.SampleWithoutReplacement(1000, 100);
  EXPECT_EQ(sample.size(), 100u);
  EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
  std::set<size_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 100u);
  for (size_t idx : sample) EXPECT_LT(idx, 1000u);
}

TEST(RngTest, SampleWithoutReplacementFullPopulation) {
  Rng rng(14);
  auto sample = rng.SampleWithoutReplacement(50, 50);
  EXPECT_EQ(sample.size(), 50u);
  for (size_t i = 0; i < 50; ++i) EXPECT_EQ(sample[i], i);
}

// Floyd's algorithm over a hash set, then sorted: the sampler before it
// tracked membership in a bitmap. Kept verbatim as the reference.
std::vector<size_t> SetBasedFloyd(Rng& rng, size_t n, size_t k) {
  std::unordered_set<size_t> chosen;
  chosen.reserve(k * 2);
  for (size_t j = n - k; j < n; ++j) {
    size_t t = static_cast<size_t>(rng.UniformU64(j + 1));
    if (!chosen.insert(t).second) chosen.insert(j);
  }
  std::vector<size_t> out(chosen.begin(), chosen.end());
  std::sort(out.begin(), out.end());
  return out;
}

// The bitmap sampler makes the same draws and returns the same indices as
// the set-based one, and leaves the stream at the same position.
TEST(RngTest, SampleWithoutReplacementMatchesSetBasedFloyd) {
  const std::pair<size_t, size_t> shapes[] = {
      {0, 0},   {1, 0},    {1, 1},     {63, 7},    {64, 64},
      {65, 1},  {100, 0},  {100, 100}, {127, 126}, {1000, 999},
      {1000, 37}, {39795, 1000},
  };
  for (const auto& [n, k] : shapes) {
    for (uint64_t seed = 0; seed < 40; ++seed) {
      Rng want_rng(seed), got_rng(seed);
      const std::vector<size_t> want = SetBasedFloyd(want_rng, n, k);
      const std::vector<size_t> got = got_rng.SampleWithoutReplacement(n, k);
      ASSERT_EQ(want, got) << "n=" << n << " k=" << k << " seed=" << seed;
      EXPECT_EQ(want_rng.NextU64(), got_rng.NextU64())
          << "n=" << n << " k=" << k << " seed=" << seed;
    }
  }
}

TEST(RngTest, SampleWithoutReplacementIsUniform) {
  // Each index should be chosen with probability k/n.
  Rng rng(15);
  const size_t kN = 20, kK = 5;
  std::vector<int> counts(kN, 0);
  const int kTrials = 20000;
  for (int t = 0; t < kTrials; ++t) {
    for (size_t idx : rng.SampleWithoutReplacement(kN, kK)) counts[idx]++;
  }
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_NEAR(counts[i] / static_cast<double>(kTrials), 0.25, 0.02)
        << "index " << i;
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(16);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// Parameterized sweep: UniformU64 histograms stay near-uniform across
// different moduli.
class RngUniformSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngUniformSweep, HistogramNearUniform) {
  uint64_t n = GetParam();
  Rng rng(100 + n);
  std::vector<int> counts(n, 0);
  const int kTrials = 30000;
  for (int i = 0; i < kTrials; ++i) counts[rng.UniformU64(n)]++;
  double expected = static_cast<double>(kTrials) / static_cast<double>(n);
  for (uint64_t k = 0; k < n; ++k) {
    EXPECT_NEAR(counts[k], expected, expected * 0.35) << "bucket " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Moduli, RngUniformSweep,
                         ::testing::Values<uint64_t>(2, 3, 5, 8, 13, 32));

}  // namespace
}  // namespace upa
