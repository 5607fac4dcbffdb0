#include "dp/accountant.h"

#include <gtest/gtest.h>

#include <limits>
#include <thread>
#include <vector>

namespace upa::dp {
namespace {

TEST(AccountantTest, ChargesWithinBudget) {
  PrivacyAccountant acc(1.0);
  EXPECT_TRUE(acc.Charge("ds", 0.4).ok());
  EXPECT_TRUE(acc.Charge("ds", 0.4).ok());
  EXPECT_DOUBLE_EQ(acc.Spent("ds"), 0.8);
  EXPECT_NEAR(acc.Remaining("ds"), 0.2, 1e-12);
}

TEST(AccountantTest, RejectsOverBudget) {
  PrivacyAccountant acc(1.0);
  EXPECT_TRUE(acc.Charge("ds", 0.9).ok());
  Status s = acc.Charge("ds", 0.2);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  // Failed charge must not consume budget.
  EXPECT_DOUBLE_EQ(acc.Spent("ds"), 0.9);
}

TEST(AccountantTest, ExactBudgetBoundaryAllowed) {
  PrivacyAccountant acc(1.0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(acc.Charge("ds", 0.1).ok()) << "charge " << i;
  }
  EXPECT_FALSE(acc.Charge("ds", 0.01).ok());
}

TEST(AccountantTest, DatasetsHaveIndependentBudgets) {
  PrivacyAccountant acc(0.5);
  EXPECT_TRUE(acc.Charge("a", 0.5).ok());
  EXPECT_TRUE(acc.Charge("b", 0.5).ok());
  EXPECT_FALSE(acc.Charge("a", 0.1).ok());
}

TEST(AccountantTest, RejectsNonPositiveEpsilon) {
  PrivacyAccountant acc(1.0);
  EXPECT_EQ(acc.Charge("ds", 0.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(acc.Charge("ds", -0.1).code(), StatusCode::kInvalidArgument);
  // Not finite: a NaN charge would pass every budget comparison and leave
  // spent = NaN, which admits everything after it.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(acc.Charge("ds", std::numeric_limits<double>::quiet_NaN()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(acc.Charge("ds", kInf).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(acc.Charge("ds", -kInf).code(), StatusCode::kInvalidArgument);
  EXPECT_DOUBLE_EQ(acc.Spent("ds"), 0.0);
  EXPECT_TRUE(acc.Charge("ds", 1.0).ok());
  EXPECT_EQ(acc.Charge("ds", 0.5).code(), StatusCode::kOutOfRange);
}

TEST(AccountantTest, UnknownDatasetHasZeroSpent) {
  PrivacyAccountant acc(2.0);
  EXPECT_DOUBLE_EQ(acc.Spent("never-seen"), 0.0);
  EXPECT_DOUBLE_EQ(acc.Remaining("never-seen"), 2.0);
}

TEST(AccountantTest, RemainingNeverGoesNegative) {
  // The 1e-12 acceptance slack in Charge lets Spent exceed the budget by a
  // hair; Remaining must clamp the tiny negative difference to 0.
  PrivacyAccountant acc(0.3);
  EXPECT_TRUE(acc.Charge("ds", 0.1).ok());
  EXPECT_TRUE(acc.Charge("ds", 0.1).ok());
  EXPECT_TRUE(acc.Charge("ds", 0.1).ok());  // float sum 0.30000000000000004
  EXPECT_GE(acc.Remaining("ds"), 0.0);
}

TEST(AccountantTest, RefundRestoresBudget) {
  PrivacyAccountant acc(1.0);
  EXPECT_TRUE(acc.Charge("ds", 0.6).ok());
  EXPECT_TRUE(acc.Refund("ds", 0.6).ok());
  EXPECT_DOUBLE_EQ(acc.Spent("ds"), 0.0);
  // The refunded budget is spendable again.
  EXPECT_TRUE(acc.Charge("ds", 1.0).ok());
}

TEST(AccountantTest, RefundIsBoundedBySpent) {
  PrivacyAccountant acc(1.0);
  EXPECT_TRUE(acc.Charge("ds", 0.2).ok());
  EXPECT_TRUE(acc.Refund("ds", 5.0).ok());  // clamped, can't mint budget
  EXPECT_DOUBLE_EQ(acc.Spent("ds"), 0.0);
  EXPECT_DOUBLE_EQ(acc.Remaining("ds"), 1.0);
}

TEST(AccountantTest, RefundRejectsUnknownDatasetAndBadEpsilon) {
  PrivacyAccountant acc(1.0);
  EXPECT_EQ(acc.Refund("never-charged", 0.1).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(acc.Charge("ds", 0.5).ok());
  EXPECT_EQ(acc.Refund("ds", 0.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(acc.Refund("ds", -0.1).code(), StatusCode::kInvalidArgument);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(acc.Refund("ds", std::numeric_limits<double>::quiet_NaN()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(acc.Refund("ds", kInf).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(acc.Refund("ds", -kInf).code(), StatusCode::kInvalidArgument);
  EXPECT_DOUBLE_EQ(acc.Spent("ds"), 0.5);  // failed refunds change nothing
  EXPECT_DOUBLE_EQ(acc.Checkpoint("ds").refunded_total, 0.0);
}

TEST(AccountantTest, CheckpointTracksChargedAndRefundedTotals) {
  PrivacyAccountant acc(1.0);
  EXPECT_TRUE(acc.Charge("ds", 0.3).ok());
  EXPECT_TRUE(acc.Charge("ds", 0.2).ok());
  EXPECT_TRUE(acc.Refund("ds", 0.2).ok());
  BudgetCheckpoint cp = acc.Checkpoint("ds");
  EXPECT_DOUBLE_EQ(cp.charged_total, 0.5);
  EXPECT_DOUBLE_EQ(cp.refunded_total, 0.2);
  EXPECT_DOUBLE_EQ(cp.spent, 0.3);
  // Failed charges must not appear in the ledger.
  EXPECT_FALSE(acc.Charge("ds", 5.0).ok());
  EXPECT_DOUBLE_EQ(acc.Checkpoint("ds").charged_total, 0.5);
  // Unknown datasets read as an all-zero ledger.
  BudgetCheckpoint fresh = acc.Checkpoint("never-seen");
  EXPECT_DOUBLE_EQ(fresh.spent, 0.0);
  EXPECT_DOUBLE_EQ(fresh.charged_total, 0.0);
  EXPECT_DOUBLE_EQ(fresh.refunded_total, 0.0);
}

TEST(AccountantTest, VerifyConservationHoldsThroughChargeRefundCycles) {
  PrivacyAccountant acc(2.0);
  EXPECT_TRUE(acc.VerifyConservation().ok());  // empty accountant
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(acc.Charge("a", 0.07).ok());
    if (i % 3 != 0) {
      ASSERT_TRUE(acc.Refund("a", 0.07).ok());
    }
    ASSERT_TRUE(acc.Charge("b", 0.01).ok());
    ASSERT_TRUE(acc.VerifyConservation().ok()) << "iteration " << i;
  }
  BudgetCheckpoint cp = acc.Checkpoint("a");
  EXPECT_NEAR(cp.spent, cp.charged_total - cp.refunded_total, 1e-12);
}

TEST(AccountantTest, RestoreLedgerRebuildsSpentFromTotals) {
  // Recovery overwrites the ledger with the journaled Σ released ε, and
  // nothing recovered is refunded; conservation must hold on the restored
  // state, including over a ledger that had refunds before.
  PrivacyAccountant acc(1.0);
  ASSERT_TRUE(acc.Charge("ds", 0.3).ok());
  ASSERT_TRUE(acc.Refund("ds", 0.3).ok());
  acc.RestoreLedger("ds", 0.40);
  BudgetCheckpoint cp = acc.Checkpoint("ds");
  EXPECT_DOUBLE_EQ(cp.charged_total, 0.40);
  EXPECT_DOUBLE_EQ(cp.refunded_total, 0.0);
  EXPECT_DOUBLE_EQ(cp.spent, 0.40);
  EXPECT_TRUE(acc.VerifyConservation().ok());
  // The restored balance composes with new charges.
  EXPECT_TRUE(acc.Charge("ds", 0.6).ok());
  EXPECT_FALSE(acc.Charge("ds", 0.1).ok());
}

TEST(AccountantTest, FailedRunAfterChargeRefundsExactlyOnce) {
  // Regression for the service's two-phase contract: a run that fails (or
  // is cancelled) after Charge refunds exactly once. A double refund would
  // show up here as refunded_total > charged_total — which conservation
  // rejects — and as minted budget.
  PrivacyAccountant acc(1.0);
  ASSERT_TRUE(acc.Charge("ds", 0.4).ok());
  ASSERT_TRUE(acc.Refund("ds", 0.4).ok());  // the one refund
  BudgetCheckpoint cp = acc.Checkpoint("ds");
  EXPECT_DOUBLE_EQ(cp.spent, 0.0);
  EXPECT_DOUBLE_EQ(cp.refunded_total, 0.4);
  EXPECT_TRUE(acc.VerifyConservation().ok());
  // A second refund of the same charge is clamped to spent (0): it cannot
  // mint budget, and the audit still balances because the clamped amount
  // is what lands in refunded_total.
  ASSERT_TRUE(acc.Refund("ds", 0.4).ok());
  cp = acc.Checkpoint("ds");
  EXPECT_DOUBLE_EQ(cp.spent, 0.0);
  EXPECT_DOUBLE_EQ(cp.refunded_total, 0.4);  // clamp kept the ledger honest
  EXPECT_TRUE(acc.VerifyConservation().ok());
  EXPECT_TRUE(acc.Charge("ds", 1.0).ok());   // full budget, nothing minted
}

TEST(AccountantTest, ChargeRefundTwoPhaseUnderConcurrency) {
  // Failed work refunds its charge; the net spend must equal only the
  // successful (non-refunded) charges regardless of interleaving.
  PrivacyAccountant acc(8.0);
  std::vector<std::thread> threads;
  std::atomic<int> kept{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        if (!acc.Charge("ds", 0.01).ok()) continue;
        if ((t + i) % 2 == 0) {
          ASSERT_TRUE(acc.Refund("ds", 0.01).ok());
        } else {
          kept.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_NEAR(acc.Spent("ds"), kept.load() * 0.01, 1e-9);
}

TEST(AccountantTest, ConcurrentChargesNeverOverspend) {
  PrivacyAccountant acc(1.0);
  std::vector<std::thread> threads;
  std::atomic<int> granted{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        if (acc.Charge("ds", 0.01).ok()) granted.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(acc.Spent("ds"), 1.0 + 1e-9);
  EXPECT_EQ(granted.load(), 100);  // exactly 100 x 0.01 fit in 1.0
}

}  // namespace
}  // namespace upa::dp
