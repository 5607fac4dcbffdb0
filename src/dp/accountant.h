// Privacy-budget accounting.
//
// Sequential composition: a sequence of ε_i-iDP releases on the same dataset
// is (Σ ε_i)-iDP. The accountant tracks consumption per dataset and refuses
// queries that would exceed the configured budget — the operational side of
// "the analyst keeps conducting queries on one dataset" in UPA's threat
// model (§III).
//
// Two-phase semantics, in memory: the service charges a query before it
// runs and refunds it if the run fails (or is cancelled / hits its
// deadline) before anything was released. Only a release is journaled, and
// it carries its ε, so after a restart the ledger is Σ released ε with
// nothing refunded. Besides the live `spent` balance, the accountant keeps
// the cumulative charge/refund ledger, so the conservation invariant
//
//   spent == charged_total − refunded_total   (and 0 ≤ spent ≤ budget)
//
// can be audited at any point (VerifyConservation) — the chaos suite calls
// it after every fault schedule and recovery cycle. Charge and Refund
// accept only a finite, positive ε.
#pragma once

#include <map>
#include <mutex>
#include <string>

#include "common/status.h"

namespace upa::dp {

/// Point-in-time ledger for one dataset (all in ε units).
struct BudgetCheckpoint {
  double spent = 0.0;
  double charged_total = 0.0;
  double refunded_total = 0.0;
};

class PrivacyAccountant {
 public:
  explicit PrivacyAccountant(double total_budget)
      : total_budget_(total_budget) {}

  /// Try to consume `epsilon` from the budget of `dataset_id`. Fails with
  /// INVALID_ARGUMENT unless `epsilon` is finite and positive, and with
  /// OUT_OF_RANGE when the budget would be exceeded.
  Status Charge(const std::string& dataset_id, double epsilon);

  /// Return `epsilon` to the budget of `dataset_id` — the second half of
  /// the charge/refund two-phase release: a query is charged before it
  /// runs and refunded if it fails before anything was released, so a
  /// failed query doesn't burn budget. The refund is bounded by what was
  /// actually spent (over-refunding can't mint budget).
  Status Refund(const std::string& dataset_id, double epsilon);

  double Spent(const std::string& dataset_id) const;
  /// total_budget − Spent, clamped at 0: the `1e-12` acceptance slack in
  /// Charge means Spent can exceed the budget by a hair, and a tiny
  /// negative remainder reads as corruption to callers.
  double Remaining(const std::string& dataset_id) const;
  double total_budget() const { return total_budget_; }

  /// Snapshot of one dataset's ledger (zeros when never charged).
  BudgetCheckpoint Checkpoint(const std::string& dataset_id) const;

  /// Debug audit used by the chaos suite: for every dataset, checks
  /// spent == charged − refunded (within float-accumulation tolerance),
  /// 0 ≤ spent ≤ budget + slack, and refunded ≤ charged. Returns the
  /// first violation as INTERNAL.
  Status VerifyConservation() const;

  /// Recovery: overwrite `dataset_id`'s ledger with journaled state, the
  /// Σ ε of its releases. Nothing recovered is refunded, so the live
  /// balance is `charged_total`.
  void RestoreLedger(const std::string& dataset_id, double charged_total);

 private:
  struct Ledger {
    double spent = 0.0;
    double charged = 0.0;
    double refunded = 0.0;
  };

  double total_budget_;
  mutable std::mutex mu_;
  std::map<std::string, Ledger> ledgers_;
};

}  // namespace upa::dp
