#include "dp/mechanism.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "common/normal_fit.h"
#include "common/stats.h"

namespace upa::dp {
namespace {

// The release UpaRunner makes: clamp into the inferred range, then add
// Laplace noise. The sensitivity here is the range's width, the largest
// change the clamp lets one neighbouring output make.
double ClampThenLaplace(double value, const Interval& range, double epsilon,
                        Rng& rng) {
  return LaplaceMechanism(range.Clamp(value), range.width(), epsilon, rng);
}

TEST(LaplaceMechanismTest, UnbiasedWithCorrectScale) {
  Rng rng(1);
  std::vector<double> noisy(60000);
  for (auto& x : noisy) x = LaplaceMechanism(10.0, 2.0, 0.5, rng);
  // scale b = 2.0 / 0.5 = 4 → sd = sqrt(2)·4.
  EXPECT_NEAR(Mean(noisy), 10.0, 0.15);
  EXPECT_NEAR(StdDevPopulation(noisy), std::sqrt(2.0) * 4.0, 0.2);
}

TEST(LaplaceMechanismTest, ZeroSensitivityIsNoiseless) {
  Rng rng(2);
  EXPECT_DOUBLE_EQ(LaplaceMechanism(3.5, 0.0, 1.0, rng), 3.5);
}

TEST(LaplaceMechanismTest, VectorPerturbsEachCoordinate) {
  Rng rng(3);
  std::vector<double> v{1.0, 2.0, 3.0};
  auto noisy = LaplaceMechanism(v, 1.0, 10.0, rng);
  ASSERT_EQ(noisy.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NE(noisy[i], v[i]);           // noise applied
    EXPECT_NEAR(noisy[i], v[i], 5.0);    // sane magnitude at eps=10
  }
}

TEST(ClampedReleaseTest, ClampsBeforeNoising) {
  Rng rng(4);
  Interval range{0.0, 1.0};
  // A value far outside the range must be clamped to the boundary; at huge
  // epsilon the noise is negligible.
  double released = ClampThenLaplace(100.0, range, 1e9, rng);
  EXPECT_NEAR(released, 1.0, 1e-3);
  released = ClampThenLaplace(-100.0, range, 1e9, rng);
  EXPECT_NEAR(released, 0.0, 1e-3);
}

TEST(ClampedReleaseTest, InsideValueUnchangedAtHugeEpsilon) {
  Rng rng(5);
  Interval range{0.0, 10.0};
  double released = ClampThenLaplace(4.2, range, 1e9, rng);
  EXPECT_NEAR(released, 4.2, 1e-3);
}

// Empirical ε check: the defining iDP inequality
// P(K(x)=o) ≤ e^ε · P(K(x')=o) for the clamp-then-Laplace release, with
// |f(x)-f(x')| equal to the full range width (the worst neighbouring pair).
TEST(ClampedReleaseTest, EmpiricalPrivacyRatioIsBounded) {
  const double eps = 0.5;
  Interval range{0.0, 1.0};
  Rng rng(6);
  const int kTrials = 400000;
  const int kBins = 20;
  std::vector<double> hist_x(kBins, 0.0), hist_xp(kBins, 0.0);
  // Worst case pair after clamping: f(x)=0, f(x')=1.
  auto bin_of = [&](double v) {
    int b = static_cast<int>((v + 3.0) / 7.0 * kBins);  // releases in (-3, 4)
    return std::clamp(b, 0, kBins - 1);
  };
  for (int t = 0; t < kTrials; ++t) {
    hist_x[bin_of(ClampThenLaplace(0.0, range, eps, rng))] += 1.0;
    hist_xp[bin_of(ClampThenLaplace(1.0, range, eps, rng))] += 1.0;
  }
  for (int b = 0; b < kBins; ++b) {
    if (hist_x[b] < 500 || hist_xp[b] < 500) continue;  // noisy tail bins
    double ratio = hist_x[b] / hist_xp[b];
    EXPECT_LT(ratio, std::exp(eps) * 1.15) << "bin " << b;
    EXPECT_GT(ratio, std::exp(-eps) / 1.15) << "bin " << b;
  }
}

// Sweep: noise magnitude scales as sensitivity / epsilon.
struct ScaleCase {
  double sensitivity;
  double epsilon;
};

class LaplaceScaleSweep : public ::testing::TestWithParam<ScaleCase> {};

TEST_P(LaplaceScaleSweep, StdDevMatchesTheory) {
  auto [sens, eps] = GetParam();
  Rng rng(static_cast<uint64_t>(sens * 1000 + eps * 100));
  std::vector<double> noisy(50000);
  for (auto& x : noisy) x = LaplaceMechanism(0.0, sens, eps, rng);
  double expect_sd = std::sqrt(2.0) * sens / eps;
  EXPECT_NEAR(StdDevPopulation(noisy), expect_sd, expect_sd * 0.05);
}

INSTANTIATE_TEST_SUITE_P(Scales, LaplaceScaleSweep,
                         ::testing::Values(ScaleCase{1.0, 0.1},
                                           ScaleCase{1.0, 1.0},
                                           ScaleCase{5.0, 0.5},
                                           ScaleCase{0.1, 2.0}));

}  // namespace
}  // namespace upa::dp
