// ExactSum: correctly-rounded summation must be order-invariant at the bit
// level — the property both relational engines lean on for determinism.
#include "common/exact_sum.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace upa {
namespace {

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

TEST(ExactSumTest, EmptyRoundsToZero) {
  ExactSum s;
  EXPECT_TRUE(s.Empty());
  EXPECT_EQ(s.Round(), 0.0);
}

TEST(ExactSumTest, CancellationExact) {
  // Naive left-to-right summation returns 0.0 here; the exact sum is 1.0.
  ExactSum s;
  s.Add(1e100);
  s.Add(1.0);
  s.Add(-1e100);
  EXPECT_EQ(s.Round(), 1.0);
}

TEST(ExactSumTest, ManyTenthsRoundCorrectly) {
  // fsum(0.1 × 10^6) == 100000.0 exactly (0.1's error cancels in the exact
  // accumulation); a naive running sum drifts off by ~1e-6.
  ExactSum s;
  for (int i = 0; i < 1000000; ++i) s.Add(0.1);
  EXPECT_EQ(s.Round(), 100000.0);
  double naive = 0.0;
  for (int i = 0; i < 1000000; ++i) naive += 0.1;
  EXPECT_NE(naive, 100000.0);  // the property the oracle cannot get naively
}

/// Adds `values` forward, reversed, in shuffled orders and through chunked
/// Merge, and expects every result to match the forward sum bit for bit.
void ExpectOrderInvariant(std::vector<double> values, Rng& rng) {
  ExactSum reference;
  for (double v : values) reference.Add(v);
  const uint64_t want = Bits(reference.Round());

  ExactSum reversed;
  for (size_t i = values.size(); i > 0; --i) reversed.Add(values[i - 1]);
  EXPECT_EQ(Bits(reversed.Round()), want) << "reversed";

  for (int trial = 0; trial < 10; ++trial) {
    rng.Shuffle(values);
    ExactSum s;
    for (double v : values) s.Add(v);
    EXPECT_EQ(Bits(s.Round()), want) << "trial " << trial;

    std::vector<ExactSum> chunks(3 + trial);
    for (size_t i = 0; i < values.size(); ++i) {
      chunks[i % chunks.size()].Add(values[i]);
    }
    ExactSum merged;
    for (size_t c = chunks.size(); c > 0; --c) merged.Merge(chunks[c - 1]);
    EXPECT_EQ(Bits(merged.Round()), want) << "merged, trial " << trial;
  }
}

TEST(ExactSumTest, OrderInvariantBitwise) {
  Rng rng = Rng::ForStream(11, "exact_sum/order");
  std::vector<double> values;
  for (int i = 0; i < 2000; ++i) {
    // Wildly mixed magnitudes, signs, and exact-cancellation pairs.
    double v = rng.Normal(0.0, 1.0) * std::pow(10.0, rng.UniformInt(-18, 18));
    values.push_back(v);
    if (rng.Bernoulli(0.3)) values.push_back(-v);
  }
  {
    SCOPED_TRACE("finite");
    ExpectOrderInvariant(values, rng);
  }

  // Non-finite values: inf − inf makes a NaN of one sign, a NaN operand
  // propagates its own, so only a canonical NaN is order-invariant.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> special = {nan,   -inf, inf,    -0.0,   0.0, 1.5,
                                 -2.25, 1e300, -1e300, 3.0,  nan, 7.5,
                                 inf,   -8.125, 42.0,  -1.0};
  for (int i = 0; i < 48; ++i) special.push_back(rng.Normal(0.0, 1e3));
  {
    SCOPED_TRACE("non-finite");
    ExactSum forward;
    for (double v : special) forward.Add(v);
    EXPECT_TRUE(std::isnan(forward.Round()));
    ExpectOrderInvariant(special, rng);
  }
}

TEST(ExactSumTest, MergeEquivalentToSequentialAdds) {
  Rng rng = Rng::ForStream(11, "exact_sum/merge");
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    values.push_back(rng.Normal(0.0, 1.0) *
                     std::pow(2.0, rng.UniformInt(-40, 40)));
  }

  ExactSum sequential;
  for (double v : values) sequential.Add(v);

  // Chunked accumulation merged in reverse chunk order — the shape the
  // partition-parallel engines produce.
  std::vector<ExactSum> chunks(7);
  for (size_t i = 0; i < values.size(); ++i) {
    chunks[i % chunks.size()].Add(values[i]);
  }
  ExactSum merged;
  for (size_t c = chunks.size(); c > 0; --c) merged.Merge(chunks[c - 1]);

  EXPECT_EQ(Bits(merged.Round()), Bits(sequential.Round()));
}

TEST(ExactSumTest, ResetClears) {
  ExactSum s;
  s.Add(3.5);
  s.Reset();
  EXPECT_TRUE(s.Empty());
  s.Add(2.0);
  EXPECT_EQ(s.Round(), 2.0);
}

}  // namespace
}  // namespace upa
