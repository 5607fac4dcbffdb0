#include "upa/range_enforcer.h"

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

namespace upa::core {
namespace {

using Recompute = std::function<std::vector<double>(size_t total_removed)>;

// A Session per call: the registry has no other way in.
EnforcerDecision Enforce(RangeEnforcer& enforcer, std::vector<double>& outputs,
                         const Recompute& recompute) {
  return RangeEnforcer::Session(enforcer).Enforce(outputs, recompute);
}

void Register(RangeEnforcer& enforcer, std::vector<double> outputs) {
  RangeEnforcer::Session(enforcer).Register(std::move(outputs));
}

// A recompute callback that shifts both partition outputs by the number of
// removed records (mimics a count query: removing records changes counts).
auto CountLikeRecompute(std::vector<double> base) {
  return [base](size_t removed) {
    std::vector<double> out = base;
    for (double& v : out) v -= static_cast<double>(removed) / 2.0;
    return out;
  };
}

TEST(RangeEnforcerTest, FirstQueryIsNeverAnAttack) {
  RangeEnforcer enforcer;
  std::vector<double> outputs{10.0, 20.0};
  auto decision = Enforce(enforcer, outputs, CountLikeRecompute(outputs));
  EXPECT_FALSE(decision.attack_suspected);
  EXPECT_EQ(decision.records_removed, 0u);
  EXPECT_EQ(decision.prior_queries_checked, 0u);
}

TEST(RangeEnforcerTest, RegisterGrowsRegistry) {
  RangeEnforcer enforcer;
  EXPECT_EQ(enforcer.registry_size(), 0u);
  Register(enforcer, {1.0, 2.0});
  Register(enforcer, {3.0, 4.0});
  EXPECT_EQ(enforcer.registry_size(), 2u);
  enforcer.RestoreRegistry({});
  EXPECT_EQ(enforcer.registry_size(), 0u);
}

TEST(RangeEnforcerTest, BothPartitionsDifferentIsCase1) {
  RangeEnforcer enforcer;
  Register(enforcer, {10.0, 20.0});
  // Differs on both partitions: the inputs differ by >= 2 records.
  std::vector<double> outputs{11.0, 21.0};
  auto decision = Enforce(enforcer, outputs, CountLikeRecompute(outputs));
  EXPECT_FALSE(decision.attack_suspected);
  EXPECT_EQ(decision.records_removed, 0u);
  EXPECT_EQ(decision.prior_queries_checked, 1u);
}

TEST(RangeEnforcerTest, OneEqualPartitionTriggersRemoval) {
  RangeEnforcer enforcer;
  Register(enforcer, {10.0, 20.0});
  // Partition 1 matches a prior query: possible neighbouring attack.
  std::vector<double> outputs{10.0, 21.0};
  auto decision = Enforce(enforcer, outputs, CountLikeRecompute(outputs));
  EXPECT_TRUE(decision.attack_suspected);
  EXPECT_GE(decision.records_removed, 2u);
  // After removal, both partitions must differ from the prior entry.
  EXPECT_NE(outputs[0], 10.0);
  EXPECT_NE(outputs[1], 20.0);
}

TEST(RangeEnforcerTest, IdenticalResubmissionTriggersRemoval) {
  RangeEnforcer enforcer;
  Register(enforcer, {5.0, 5.0});
  std::vector<double> outputs{5.0, 5.0};
  auto decision = Enforce(enforcer, outputs, CountLikeRecompute(outputs));
  EXPECT_TRUE(decision.attack_suspected);
  EXPECT_EQ(decision.records_removed, 2u);  // one round suffices here
}

TEST(RangeEnforcerTest, ChecksAllPriorQueries) {
  RangeEnforcer enforcer;
  Register(enforcer, {1.0, 2.0});
  Register(enforcer, {3.0, 4.0});
  Register(enforcer, {5.0, 6.0});
  std::vector<double> outputs{100.0, 200.0};
  auto decision = Enforce(enforcer, outputs, CountLikeRecompute(outputs));
  EXPECT_EQ(decision.prior_queries_checked, 3u);
  EXPECT_FALSE(decision.attack_suspected);
}

TEST(RangeEnforcerTest, RemovalLoopEscalatesUntilSeparated) {
  RangeEnforcer enforcer;
  Register(enforcer, {10.0, 20.0});
  std::vector<double> outputs{10.0, 20.0};
  // Recompute that only separates after 6 removed records.
  auto stubborn = [](size_t removed) {
    if (removed < 6) return std::vector<double>{10.0, 20.0};
    return std::vector<double>{-1.0, -2.0};
  };
  auto decision = Enforce(enforcer, outputs, stubborn);
  EXPECT_TRUE(decision.attack_suspected);
  EXPECT_EQ(decision.records_removed, 6u);
  EXPECT_FALSE(decision.removal_capped);
}

TEST(RangeEnforcerTest, DegenerateConstantQueryHitsCap) {
  RangeEnforcer enforcer;
  Register(enforcer, {1.0, 1.0});
  std::vector<double> outputs{1.0, 1.0};
  auto constant = [](size_t) { return std::vector<double>{1.0, 1.0}; };
  auto decision = Enforce(enforcer, outputs, constant);
  EXPECT_TRUE(decision.attack_suspected);
  EXPECT_TRUE(decision.removal_capped);
  EXPECT_LE(decision.records_removed, RangeEnforcer::kMaxRemovals);
}

TEST(RangeEnforcerTest, RemovalCapStopsScanningFurtherPriors) {
  // Once the cap is hit against one prior, the enforcer must bail out of
  // the whole pass rather than keep burning removals against later priors.
  RangeEnforcer enforcer;
  Register(enforcer, {1.0, 1.0});
  Register(enforcer, {1.0, 1.0});
  std::vector<double> outputs{1.0, 1.0};
  auto constant = [](size_t) { return std::vector<double>{1.0, 1.0}; };
  auto decision = Enforce(enforcer, outputs, constant);
  EXPECT_TRUE(decision.removal_capped);
  EXPECT_TRUE(decision.attack_suspected);
  EXPECT_LE(decision.records_removed, RangeEnforcer::kMaxRemovals);
  EXPECT_EQ(decision.prior_queries_checked, 2u);
}

TEST(RangeEnforcerTest, CapExactlyAtBoundaryIsNotCapped) {
  // Separation achieved with exactly kMaxRemovals removed records: the
  // decision reports the removals but not the cap.
  RangeEnforcer enforcer;
  Register(enforcer, {10.0, 20.0});
  std::vector<double> outputs{10.0, 20.0};
  auto separates_at_cap = [](size_t removed) {
    if (removed < RangeEnforcer::kMaxRemovals) {
      return std::vector<double>{10.0, 20.0};
    }
    return std::vector<double>{-1.0, -2.0};
  };
  auto decision = Enforce(enforcer, outputs, separates_at_cap);
  EXPECT_FALSE(decision.removal_capped);
  EXPECT_EQ(decision.records_removed, RangeEnforcer::kMaxRemovals);
}

TEST(RangeEnforcerTest, ShorterPriorArityCountsEveryPartitionAsDifferent) {
  // A prior registered under a smaller partitioning config must count as
  // differing on every *current* partition, never index out of range.
  RangeEnforcer enforcer;
  Register(enforcer, {5.0});
  std::vector<double> outputs{5.0, 5.0, 5.0};
  auto decision = Enforce(enforcer, outputs, CountLikeRecompute(outputs));
  EXPECT_FALSE(decision.attack_suspected);
  EXPECT_EQ(decision.records_removed, 0u);
}

TEST(RangeEnforcerTest, LongerPriorArityAlsoTriviallyDiffers) {
  RangeEnforcer enforcer;
  Register(enforcer, {5.0, 5.0, 5.0, 5.0});
  std::vector<double> outputs{5.0, 5.0};
  auto decision = Enforce(enforcer, outputs, CountLikeRecompute(outputs));
  EXPECT_FALSE(decision.attack_suspected);
  EXPECT_EQ(decision.records_removed, 0u);
}

TEST(RangeEnforcerTest, MixedArityAndMatchingPriorsStillEnforce) {
  // An arity-mismatched prior must not mask a genuine repeat: the matching
  // prior still triggers the removal loop.
  RangeEnforcer enforcer;
  Register(enforcer, {7.0, 7.0, 7.0});  // different config, ignored
  Register(enforcer, {10.0, 20.0});     // genuine repeat target
  std::vector<double> outputs{10.0, 20.0};
  auto decision = Enforce(enforcer, outputs, CountLikeRecompute(outputs));
  EXPECT_TRUE(decision.attack_suspected);
  EXPECT_GE(decision.records_removed, 2u);
  EXPECT_EQ(decision.prior_queries_checked, 2u);
}

TEST(RangeEnforcerTest, ToleranceAbsorbsFloatNoise) {
  RangeEnforcer enforcer;
  EXPECT_TRUE(enforcer.NearlyEqual(1.0, 1.0 + 1e-13));
  EXPECT_TRUE(enforcer.NearlyEqual(1e6, 1e6 * (1.0 + 1e-12)));
  EXPECT_FALSE(enforcer.NearlyEqual(1.0, 1.001));
  EXPECT_TRUE(enforcer.NearlyEqual(0.0, 0.0));
}

TEST(RangeEnforcerTest, DifferentArityPriorTriviallyDiffers) {
  RangeEnforcer enforcer;
  Register(enforcer, {1.0, 2.0, 3.0});  // registered under another config
  std::vector<double> outputs{1.0, 2.0};
  auto decision = Enforce(enforcer, outputs, CountLikeRecompute(outputs));
  EXPECT_FALSE(decision.attack_suspected);
}

TEST(RangeEnforcerTest, RemovalReCollidingWithEarlierPriorReachesFixpoint) {
  // Regression for the registry re-scan hole: separating the outputs from
  // the SECOND prior moves them back into collision with the FIRST. A
  // per-prior single pass terminates with outputs equal to prior A —
  // silently violating Algorithm 2's "differs on >= 2 partitions from
  // every prior" invariant. The fixpoint loop must keep removing.
  RangeEnforcer enforcer;
  Register(enforcer, {10.0, 20.0});  // prior A
  Register(enforcer, {12.0, 22.0});  // prior B
  std::vector<double> outputs{10.0, 20.0};
  // removed=2 → separated from A but identical to B; removed=4 →
  // separated from B but identical to A again; removed=6 → clear of both.
  auto recompute = [](size_t removed) {
    if (removed == 2) return std::vector<double>{12.0, 22.0};
    if (removed == 4) return std::vector<double>{10.0, 20.0};
    return std::vector<double>{5.0, 15.0};
  };
  auto decision = Enforce(enforcer, outputs, recompute);
  EXPECT_TRUE(decision.attack_suspected);
  EXPECT_EQ(decision.records_removed, 6u);
  EXPECT_GE(decision.fixpoint_passes, 2u);
  // The universal invariant: final outputs differ from EVERY prior on at
  // least two partitions simultaneously.
  for (const auto& prior :
       {std::vector<double>{10.0, 20.0}, std::vector<double>{12.0, 22.0}}) {
    size_t diff = 0;
    for (size_t j = 0; j < prior.size(); ++j) {
      if (!enforcer.NearlyEqual(outputs[j], prior[j])) ++diff;
    }
    EXPECT_GE(diff, 2u) << "re-collided with prior {" << prior[0] << ","
                        << prior[1] << "}";
  }
}

TEST(RangeEnforcerTest, FixpointIsOnePassWithoutRecollision) {
  RangeEnforcer enforcer;
  Register(enforcer, {1.0, 2.0});
  Register(enforcer, {3.0, 4.0});
  std::vector<double> outputs{100.0, 200.0};
  auto decision = Enforce(enforcer, outputs, CountLikeRecompute(outputs));
  EXPECT_FALSE(decision.attack_suspected);
  EXPECT_EQ(decision.fixpoint_passes, 1u);
}

TEST(RangeEnforcerTest, FixpointLoopStillRespectsRemovalCap) {
  // A recompute that oscillates between the two priors forever must be cut
  // off by the cap, not loop endlessly.
  RangeEnforcer enforcer;
  Register(enforcer, {10.0, 20.0});
  Register(enforcer, {12.0, 22.0});
  std::vector<double> outputs{10.0, 20.0};
  auto oscillate = [](size_t removed) {
    return (removed / 2) % 2 == 1 ? std::vector<double>{12.0, 22.0}
                                  : std::vector<double>{10.0, 20.0};
  };
  auto decision = Enforce(enforcer, outputs, oscillate);
  EXPECT_TRUE(decision.attack_suspected);
  EXPECT_TRUE(decision.removal_capped);
  EXPECT_LE(decision.records_removed, RangeEnforcer::kMaxRemovals);
}

// One session held across Enforce → Register decides exactly as a session
// per call does when nothing else touches the registry.
TEST(RangeEnforcerTest, SessionEnforceRegisterMatchesStandalone) {
  RangeEnforcer standalone;
  Register(standalone, {10.0, 20.0});
  std::vector<double> a{10.0, 21.0};
  auto expect = Enforce(standalone, a, CountLikeRecompute(a));
  Register(standalone, a);

  RangeEnforcer sessioned;
  Register(sessioned, {10.0, 20.0});
  std::vector<double> b{10.0, 21.0};
  EnforcerDecision got;
  {
    RangeEnforcer::Session session(sessioned);
    got = session.Enforce(b, CountLikeRecompute(b));
    session.Register(b);
  }
  EXPECT_EQ(got.attack_suspected, expect.attack_suspected);
  EXPECT_EQ(got.records_removed, expect.records_removed);
  EXPECT_EQ(b, a);
  EXPECT_EQ(sessioned.registry_size(), standalone.registry_size());
}

TEST(RangeEnforcerTest, SequenceOfQueriesAccumulates) {
  RangeEnforcer enforcer;
  for (int i = 0; i < 5; ++i) {
    std::vector<double> outputs{static_cast<double>(i), 100.0 + i};
    auto decision = Enforce(enforcer, outputs, CountLikeRecompute(outputs));
    EXPECT_FALSE(decision.attack_suspected) << "i=" << i;
    Register(enforcer, outputs);
  }
  EXPECT_EQ(enforcer.registry_size(), 5u);
  // Now replay the first query exactly: attack suspected.
  std::vector<double> replay{0.0, 100.0};
  auto decision = Enforce(enforcer, replay, CountLikeRecompute(replay));
  EXPECT_TRUE(decision.attack_suspected);
}

}  // namespace
}  // namespace upa::core
