#include "common/normal_fit.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"

namespace upa {
namespace {

TEST(FitNormalMleTest, RecoversParameters) {
  Rng rng(123);
  std::vector<double> xs(100000);
  for (auto& x : xs) x = rng.Normal(-4.0, 1.5);
  NormalParams p = FitNormalMle(xs);
  EXPECT_NEAR(p.mean, -4.0, 0.02);
  EXPECT_NEAR(p.stddev, 1.5, 0.02);
}

TEST(FitNormalMleTest, EmptyAndConstant) {
  NormalParams empty = FitNormalMle(std::vector<double>{});
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
  EXPECT_DOUBLE_EQ(empty.stddev, 0.0);

  std::vector<double> constant(10, 3.0);
  NormalParams c = FitNormalMle(constant);
  EXPECT_DOUBLE_EQ(c.mean, 3.0);
  EXPECT_DOUBLE_EQ(c.stddev, 0.0);
}

TEST(StandardNormalQuantileTest, KnownValues) {
  EXPECT_NEAR(StandardNormalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(StandardNormalQuantile(0.975), 1.959963985, 1e-6);
  EXPECT_NEAR(StandardNormalQuantile(0.99), 2.326347874, 1e-6);
  EXPECT_NEAR(StandardNormalQuantile(0.01), -2.326347874, 1e-6);
  EXPECT_NEAR(StandardNormalQuantile(0.8413447461), 1.0, 1e-6);
}

TEST(StandardNormalQuantileTest, SymmetryProperty) {
  for (double p : {0.001, 0.05, 0.2, 0.35, 0.49}) {
    EXPECT_NEAR(StandardNormalQuantile(p), -StandardNormalQuantile(1.0 - p),
                1e-9)
        << "p=" << p;
  }
}

TEST(StandardNormalQuantileTest, RoundTripsThroughCdf) {
  for (double p = 0.01; p < 1.0; p += 0.01) {
    double x = StandardNormalQuantile(p);
    double cdf = 0.5 * std::erfc(-x / std::sqrt(2.0));
    EXPECT_NEAR(cdf, p, 1e-8) << "p=" << p;
  }
}

TEST(NormalQuantileTest, ScalesAndShifts) {
  NormalParams params{10.0, 2.0};
  EXPECT_NEAR(NormalQuantile(params, 0.5), 10.0, 1e-9);
  EXPECT_NEAR(NormalQuantile(params, 0.975), 10.0 + 2.0 * 1.959963985, 1e-5);
}

TEST(IntervalTest, ClampAndContains) {
  Interval iv{-1.0, 3.0};
  EXPECT_DOUBLE_EQ(iv.width(), 4.0);
  EXPECT_TRUE(iv.Contains(0.0));
  EXPECT_TRUE(iv.Contains(-1.0));
  EXPECT_TRUE(iv.Contains(3.0));
  EXPECT_FALSE(iv.Contains(3.0001));
  EXPECT_DOUBLE_EQ(iv.Clamp(-5.0), -1.0);
  EXPECT_DOUBLE_EQ(iv.Clamp(5.0), 3.0);
  EXPECT_DOUBLE_EQ(iv.Clamp(1.0), 1.0);
}

TEST(NormalPercentileIntervalTest, MatchesAnalyticInterval) {
  Rng rng(321);
  std::vector<double> xs(200000);
  for (auto& x : xs) x = rng.Normal(5.0, 1.0);
  Interval iv = NormalPercentileInterval(xs, 1.0, 99.0);
  // True [P1, P99] of N(5,1) is 5 ± 2.3263.
  EXPECT_NEAR(iv.lo, 5.0 - 2.3263, 0.03);
  EXPECT_NEAR(iv.hi, 5.0 + 2.3263, 0.03);
}

TEST(NormalPercentileIntervalTest, DegenerateDataGivesPointInterval) {
  std::vector<double> xs(100, 7.0);
  Interval iv = NormalPercentileInterval(xs, 1.0, 99.0);
  EXPECT_DOUBLE_EQ(iv.lo, 7.0);
  EXPECT_DOUBLE_EQ(iv.hi, 7.0);
  EXPECT_DOUBLE_EQ(iv.width(), 0.0);
}

// Degenerate fit: identical observations have population stddev 0, and
// every quantile of the fitted "normal" collapses onto the mean. The
// interval must come back as the zero-width point [c, c] — this is exactly
// the constant-query case whose zero sensitivity the runner's
// kMinSensitivity floors downstream.
TEST(NormalPercentileIntervalTest, ZeroStddevCollapsesToPoint) {
  std::vector<double> xs(500, 3.25);
  NormalParams fit = FitNormalMle(xs);
  EXPECT_DOUBLE_EQ(fit.mean, 3.25);
  EXPECT_DOUBLE_EQ(fit.stddev, 0.0);
  Interval iv = NormalPercentileInterval(xs, 1.0, 99.0);
  EXPECT_DOUBLE_EQ(iv.lo, 3.25);
  EXPECT_DOUBLE_EQ(iv.hi, 3.25);
  EXPECT_DOUBLE_EQ(iv.width(), 0.0);
  EXPECT_TRUE(iv.Contains(3.25));
  EXPECT_FALSE(iv.Contains(3.25 + 1e-9));
}

TEST(NormalPercentileIntervalTest, ZeroStddevQuantilesAreMean) {
  NormalParams degenerate{-2.0, 0.0};
  for (double p : {0.01, 0.5, 0.99}) {
    EXPECT_DOUBLE_EQ(NormalQuantile(degenerate, p), -2.0);
  }
}

// The paper's coverage claim: for normal-ish neighbour outputs, the fitted
// [P1, P99] interval covers ~98% of the underlying population. Sweep over
// sample sizes to show n=1000 is where coverage stabilizes (Fig 3's story).
class CoverageSweep : public ::testing::TestWithParam<int> {};

TEST_P(CoverageSweep, FittedIntervalCoversPopulation) {
  int n = GetParam();
  Rng rng(9000 + n);
  std::vector<double> sample(n);
  for (auto& x : sample) x = rng.Normal(0.0, 1.0);
  Interval iv = NormalPercentileInterval(sample, 1.0, 99.0);

  std::vector<double> population(50000);
  for (auto& x : population) x = rng.Normal(0.0, 1.0);
  double cov = CoverageFraction(population, iv.lo, iv.hi);
  // Small samples may under-cover; by n=1000 coverage must be ~0.98.
  if (n >= 1000) {
    EXPECT_GT(cov, 0.955) << "n=" << n;
  } else {
    EXPECT_GT(cov, 0.85) << "n=" << n;
  }
  EXPECT_LE(cov, 1.0);
}

INSTANTIATE_TEST_SUITE_P(SampleSizes, CoverageSweep,
                         ::testing::Values(100, 300, 1000, 3000, 10000));

}  // namespace
}  // namespace upa
