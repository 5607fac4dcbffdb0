#include "common/stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace upa {
namespace {

TEST(MeanTest, BasicAndEmpty) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(Mean(std::vector<double>{}), 0.0);
}

TEST(VarianceTest, PopulationVsSample) {
  std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(VariancePopulation(xs), 4.0);
  EXPECT_DOUBLE_EQ(StdDevPopulation(xs), 2.0);
}

TEST(VarianceTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(VariancePopulation(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(VariancePopulation(std::vector<double>{5.0}), 0.0);
}

TEST(RelativeRmseTest, MatchesHandComputation) {
  std::vector<double> est{11.0, 18.0};
  std::vector<double> truth{10.0, 20.0};
  // rel errors: 0.1, -0.1 → RMSE 0.1.
  EXPECT_NEAR(RelativeRmse(est, truth), 0.1, 1e-12);
}

TEST(RelativeRmseTest, SkipsZeroTruths) {
  std::vector<double> est{5.0, 11.0};
  std::vector<double> truth{0.0, 10.0};
  EXPECT_NEAR(RelativeRmse(est, truth), 0.1, 1e-12);
}

TEST(RelativeRmseTest, AllZeroTruthsGiveZero) {
  std::vector<double> est{5.0};
  std::vector<double> truth{0.0};
  EXPECT_DOUBLE_EQ(RelativeRmse(est, truth), 0.0);
}

TEST(CoverageTest, CountsInclusiveInterval) {
  std::vector<double> xs{0.0, 1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(CoverageFraction(xs, 1.0, 3.0), 0.6);
  EXPECT_DOUBLE_EQ(CoverageFraction(xs, -10.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(CoverageFraction(xs, 5.0, 6.0), 0.0);
  EXPECT_DOUBLE_EQ(CoverageFraction(std::vector<double>{}, 0.0, 1.0), 0.0);
}

}  // namespace
}  // namespace upa
