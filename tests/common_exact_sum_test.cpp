// ExactSum: correctly-rounded summation must be order-invariant at the bit
// level — the property both relational engines lean on for determinism —
// and must return what an independent exact summation returns
// (tests/exact_sum_reference.h), since every engine sums through it.
#include "common/exact_sum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exact_sum_reference.h"

namespace upa {
namespace {

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMax = std::numeric_limits<double>::max();
const uint64_t kNanBits = Bits(std::numeric_limits<double>::quiet_NaN());

ExactSum SumOf(const std::vector<double>& values) {
  ExactSum s;
  for (double v : values) s.Add(v);
  return s;
}

TEST(ExactSumTest, EmptyRoundsToZero) {
  EXPECT_EQ(Bits(ExactSum().Round()), Bits(0.0));
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

  // Non-finite values: a NaN, or +inf with -inf, makes the canonical NaN
  // whatever the order.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> special = {nan,   -kInf, kInf,   -0.0,   0.0, 1.5,
                                 -2.25, 1e300, -1e300, 3.0,    nan, 7.5,
                                 kInf,  -8.125, 42.0,  -1.0};
  for (int i = 0; i < 48; ++i) special.push_back(rng.Normal(0.0, 1e3));
  {
    SCOPED_TRACE("non-finite");
    EXPECT_EQ(Bits(SumOf(special).Round()), kNanBits);
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

// Infinities and NaN round as IEEE addition does: an infinity of one sign
// wins, opposite infinities or any NaN give the canonical NaN, and a finite
// sum beyond the double range rounds to the infinity of its sign.
TEST(ExactSumTest, NonFiniteResultsFollowIeee) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Bits(SumOf({1.0, kInf}).Round()), Bits(kInf));
  EXPECT_EQ(Bits(SumOf({kInf, kInf}).Round()), Bits(kInf));
  EXPECT_EQ(Bits(SumOf({-kInf, 5.0, -kInf}).Round()), Bits(-kInf));
  EXPECT_EQ(Bits(SumOf({1e308, 1e308}).Round()), Bits(kInf));
  EXPECT_EQ(Bits(SumOf({-1e308, -1e308}).Round()), Bits(-kInf));
  EXPECT_EQ(Bits(SumOf({kInf, -kInf}).Round()), kNanBits);
  EXPECT_EQ(Bits(SumOf({nan}).Round()), kNanBits);
  EXPECT_EQ(Bits(SumOf({-nan, 1.0}).Round()), kNanBits);
  EXPECT_EQ(Bits(SumOf({kInf, nan}).Round()), kNanBits);
  EXPECT_FALSE(SumOf({kInf}).Finite());
  EXPECT_FALSE(SumOf({nan}).Finite());

  // Subtracting an infinity adds its negation.
  ExactSum inf = SumOf({kInf});
  ExactSum rest = SumOf({1.0});
  rest.Subtract(SumOf({-kInf}));
  EXPECT_EQ(Bits(rest.Round()), Bits(kInf));
  rest = inf;
  rest.Subtract(inf);
  EXPECT_EQ(Bits(rest.Round()), kNanBits);

  // The overflow threshold: DBL_MAX plus half its ulp ties, and the tie
  // goes to the even significand, 2^1024, which is +inf; anything below
  // the tie rounds back to DBL_MAX. Hardware addition agrees.
  const double half_ulp = std::ldexp(1.0, 970);
  EXPECT_EQ(Bits(SumOf({kMax, half_ulp}).Round()), Bits(kMax + half_ulp));
  EXPECT_EQ(Bits(SumOf({kMax, half_ulp}).Round()), Bits(kInf));
  EXPECT_EQ(Bits(SumOf({kMax, half_ulp / 2}).Round()), Bits(kMax));
  EXPECT_EQ(Bits(SumOf({-kMax, -half_ulp, half_ulp / 4}).Round()),
            Bits(-kMax));
}

// A finite sum never overflows inside the accumulator: partial sums beyond
// DBL_MAX stay exact, so a later cancellation brings them back.
TEST(ExactSumTest, HugeFiniteSumsStayExact) {
  ExactSum twice = SumOf({1e308, 1e308});
  EXPECT_TRUE(twice.Finite());
  EXPECT_EQ(Bits(SumOf({kMax, kMax, -kMax}).Round()), Bits(kMax));
  EXPECT_EQ(Bits(SumOf({kMax, kMax, kMax, -kMax, -kMax, 1.0}).Round()),
            Bits(kMax));

  ExactSum many;
  for (int i = 0; i < 5000; ++i) many.Add(kMax);
  EXPECT_EQ(Bits(many.Round()), Bits(kInf));
  for (int i = 0; i < 4999; ++i) many.Add(-kMax);
  EXPECT_TRUE(many.Finite());
  EXPECT_EQ(Bits(many.Round()), Bits(kMax));
  twice.Subtract(SumOf({1e308}));
  EXPECT_EQ(Bits(twice.Round()), Bits(1e308));
}

// Any two doubles: hardware addition is the correctly rounded exact sum,
// overflow to ±inf included, so it is an independent reference for pairs.
TEST(ExactSumTest, PairsMatchHardwareAddition) {
  Rng rng = Rng::ForStream(11, "exact_sum/pairs");
  auto draw = [&rng] {
    // Any finite bit pattern, half of them within 4 octaves of DBL_MAX.
    uint64_t bits = rng.NextU64();
    if (rng.Bernoulli(0.5)) bits |= uint64_t{0x7fc} << 52;
    const double d = std::bit_cast<double>(bits);
    return std::isfinite(d) ? d : 1.0;
  };
  for (int i = 0; i < 20000; ++i) {
    const double a = draw(), b = draw();
    ASSERT_EQ(Bits(SumOf({a, b}).Round()), Bits(a + b))
        << std::hexfloat << a << " + " << b;
  }
}

// The sign of an exact zero: -0.0 iff at least one value was added and
// every value was -0.0. Subtract adds the negated multiset, so it takes
// -0.0 out of a +0.0 and +0.0 out of a -0.0.
TEST(ExactSumTest, ZeroSignRule) {
  struct Case {
    std::vector<double> added, subtracted;
    double want;
  };
  const Case cases[] = {
      {{}, {}, 0.0},
      {{-0.0}, {}, -0.0},
      {{-0.0, -0.0, -0.0}, {}, -0.0},
      {{0.0}, {}, 0.0},
      {{-0.0, 0.0}, {}, 0.0},
      {{1.0, -1.0}, {}, 0.0},
      {{-1.0, 1.0, -0.0}, {}, 0.0},
      {{-0.0}, {0.0}, -0.0},
      {{-0.0}, {0.0, 0.0}, -0.0},
      {{}, {0.0}, -0.0},
      {{-0.0}, {-0.0}, 0.0},
      {{}, {-0.0}, 0.0},
      {{5.0, -0.0}, {5.0}, 0.0},
      {{-0.0}, {5.0, -5.0}, 0.0},
      {{-0.0, 2.5}, {2.5, 0.0}, 0.0},
  };
  for (const Case& c : cases) {
    ExactSum s = SumOf(c.added);
    s.Subtract(SumOf(c.subtracted));
    EXPECT_EQ(Bits(s.Round()), Bits(c.want))
        << c.added.size() << " added, " << c.subtracted.size()
        << " subtracted";
    // Merge keeps the rule in either direction.
    ExactSum merged = SumOf(c.added);
    merged.Merge(ExactSum());
    ExactSum into;
    into.Merge(SumOf(c.added));
    EXPECT_EQ(Bits(merged.Round()), Bits(SumOf(c.added).Round()));
    EXPECT_EQ(Bits(into.Round()), Bits(SumOf(c.added).Round()));
  }
}

// ---------------------------------------------------------------------------
// Differential against the Shewchuk reference.

/// A multiset of `n` values from distribution `kind`. The magnitudes stay
/// below 2^940, so no partial of the reference can overflow.
std::vector<double> Draw(int kind, size_t n, Rng& rng) {
  std::vector<double> v;
  v.reserve(n);
  auto spread = [&rng] {
    // 2,000 octaves, subnormals included.
    const double d = std::ldexp(rng.UniformDouble(1.0, 2.0),
                                static_cast<int>(rng.UniformInt(-1074, 926)));
    return rng.Bernoulli(0.5) ? -d : d;
  };
  while (v.size() < n) {
    switch (kind) {
      case 0:  // uniform
        v.push_back(rng.UniformDouble(-1000.0, 1000.0));
        break;
      case 1:
        v.push_back(spread());
        break;
      case 2: {  // cancelling pairs, with a few leftovers
        const double d = rng.Bernoulli(0.5) ? spread() : rng.Normal(0.0, 1e6);
        v.push_back(d);
        if (v.size() < n && rng.Bernoulli(0.9)) v.push_back(-d);
        break;
      }
      case 3: {  // signed zeros, a few values among them
        const uint64_t pick = rng.UniformU64(10);
        v.push_back(pick < 5 ? -0.0 : pick < 9 ? 0.0 : rng.Normal(0.0, 1.0));
        break;
      }
      case 4: {  // l_extendedprice * l_discount
        const double quantity = 1.0 + static_cast<double>(rng.UniformU64(50));
        const double price = quantity * rng.UniformDouble(900.0, 1100.0);
        v.push_back(price * (0.01 * static_cast<double>(rng.UniformU64(11))));
        break;
      }
      default:  // COUNT's unit weights
        v.push_back(1.0);
        break;
    }
  }
  rng.Shuffle(v);
  return v;
}

constexpr int kKinds = 6;
const char* const kKindNames[kKinds] = {"uniform",    "spread", "cancelling",
                                        "signed-zero", "price", "ones"};

/// A multiset size: 1 or 2, a small set, or a set whose adds cross the
/// accumulator's carry propagation (1,000–1,030, 2,050 and 5,000 values).
size_t DrawSize(Rng& rng) {
  const uint64_t pick = rng.UniformU64(100);
  if (pick < 20) return 1;
  if (pick < 40) return 2;
  if (pick < 80) return 3 + rng.UniformU64(200);
  if (pick < 97) return 1000 + rng.UniformU64(31);
  return pick < 99 ? 2050 : 5000;
}

// Every multiset is summed forward, shuffled, and in chunks merged in
// reverse, then a random sub-multiset is subtracted; each result must equal
// the reference's bits. The reference's Subtract does not carry the
// zero-sign rule, so the difference is checked against the reference sum
// of the multiset with the subtracted values added negated.
TEST(ExactSumReferenceTest, RandomMultisetsMatchTheReference) {
  Rng rng = Rng::ForStream(11, "exact_sum/reference");
  constexpr int kMultisets = 20400;
  int checked = 0;
  for (int m = 0; m < kMultisets; ++m) {
    const int kind = m % kKinds;
    const size_t n = m < 2 * kKinds ? (m < kKinds ? 1 : 2)
                     : m < 4 * kKinds ? (m < 3 * kKinds ? 2050 : 5000)
                                      : DrawSize(rng);
    std::vector<double> values = Draw(kind, n, rng);
    const std::string where = std::string(kKindNames[kind]) + " multiset " +
                              std::to_string(m) + " of " + std::to_string(n);

    ReferenceSum reference;
    for (double v : values) reference.Add(v);
    ASSERT_TRUE(reference.Finite()) << where;
    const uint64_t want = Bits(reference.Round());

    const ExactSum forward = SumOf(values);
    ASSERT_TRUE(forward.Finite()) << where;
    ASSERT_EQ(Bits(forward.Round()), want) << where << ", forward";

    std::vector<double> shuffled = values;
    rng.Shuffle(shuffled);
    ASSERT_EQ(Bits(SumOf(shuffled).Round()), want) << where << ", shuffled";

    std::vector<ExactSum> chunks(1 + rng.UniformU64(7));
    const bool contiguous = rng.Bernoulli(0.5);
    for (size_t i = 0; i < n; ++i) {
      chunks[contiguous ? i * chunks.size() / n : i % chunks.size()].Add(
          values[i]);
    }
    ExactSum merged;
    for (size_t c = chunks.size(); c > 0; --c) merged.Merge(chunks[c - 1]);
    ASSERT_EQ(Bits(merged.Round()), want) << where << ", merged";

    ExactSum taken;
    ReferenceSum rest = reference;
    const double share = rng.UniformDouble();
    for (double v : values) {
      if (rng.UniformDouble() < share) {
        taken.Add(v);
        rest.Add(-v);
      }
    }
    merged.Subtract(taken);
    ASSERT_EQ(Bits(merged.Round()), Bits(rest.Round())) << where
                                                        << ", subtracted";
    ++checked;
  }
  EXPECT_EQ(checked, kMultisets);
}

}  // namespace
}  // namespace upa
