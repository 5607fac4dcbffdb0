// Precondition-violation (UPA_CHECK) death tests: programming errors must
// abort loudly, not corrupt privacy state silently.
#include <gtest/gtest.h>

#include "common/normal_fit.h"
#include "common/rng.h"
#include "dp/mechanism.h"
#include "engine/dataset.h"
#include "relational/value.h"
#include "upa/exclusion.h"
#include "upa/types.h"

namespace upa {
namespace {

using DeathTest = ::testing::Test;

TEST(DeathTest, RngRejectsZeroBound) {
  Rng rng(1);
  EXPECT_DEATH(rng.UniformU64(0), "n > 0");
}

TEST(DeathTest, RngRejectsInvertedRange) {
  Rng rng(1);
  EXPECT_DEATH(rng.UniformInt(5, 2), "lo <= hi");
}

TEST(DeathTest, RngRejectsOversample) {
  Rng rng(1);
  EXPECT_DEATH(rng.SampleWithoutReplacement(3, 5), "population");
}

TEST(DeathTest, LaplaceRejectsNonPositiveEpsilon) {
  Rng rng(1);
  EXPECT_DEATH(dp::LaplaceMechanism(1.0, 1.0, 0.0, rng), "epsilon");
}

TEST(DeathTest, LaplaceRejectsNegativeSensitivity) {
  Rng rng(1);
  EXPECT_DEATH(dp::LaplaceMechanism(1.0, -1.0, 0.5, rng), "sensitivity");
}

TEST(DeathTest, ExclusionRejectsEmptySample) {
  std::vector<double> empty;
  EXPECT_DEATH(core::ExclusionAggregate(empty, 1), "empty sample");
  EXPECT_DEATH(core::NaiveExclusionAggregate(empty, 1), "empty sample");
}

TEST(DeathTest, PercentileIntervalRejectsBoundaryPercentiles) {
  // Regression: lo_pct <= 0 / hi_pct >= 100 used to crash deep inside
  // StandardNormalQuantile with the unhelpful "(0,1)" message; the API
  // boundary now rejects them with a percentile-flavoured message.
  std::vector<double> xs{1.0, 2.0, 3.0};
  EXPECT_DEATH(NormalPercentileInterval(xs, 0.0, 99.0),
               "strictly inside \\(0, 100\\)");
  EXPECT_DEATH(NormalPercentileInterval(xs, -5.0, 99.0),
               "strictly inside \\(0, 100\\)");
  EXPECT_DEATH(NormalPercentileInterval(xs, 1.0, 100.0),
               "strictly inside \\(0, 100\\)");
  EXPECT_DEATH(NormalPercentileInterval(xs, 1.0, 120.0),
               "strictly inside \\(0, 100\\)");
}

TEST(DeathTest, VecSumRejectsDimensionMismatch) {
  core::Vec a{1.0, 2.0};
  core::Vec b{1.0, 2.0, 3.0};
  EXPECT_DEATH(core::VecSum::Combine(a, b), "dimensions");
}

TEST(DeathTest, DatasetRejectsNullContext) {
  EXPECT_DEATH(engine::Dataset<int>::FromVector(nullptr, {1, 2}),
               "ctx != nullptr");
}

TEST(DeathTest, ValueAccessorsRejectWrongType) {
  rel::Value s{std::string("x")};
  EXPECT_DEATH(rel::AsInt(s), "not an int");
  EXPECT_DEATH(rel::AsNumeric(s), "not numeric");
  rel::Value i{int64_t{1}};
  EXPECT_DEATH(rel::AsString(i), "not a string");
}

TEST(DeathTest, ValueCompareRejectsMixedStringNumeric) {
  EXPECT_DEATH(
      rel::Compare(rel::Value{int64_t{1}}, rel::Value{std::string("1")}),
      "cannot compare");
}

}  // namespace
}  // namespace upa
