#include "dp/accountant.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace upa::dp {

Status PrivacyAccountant::Charge(const std::string& dataset_id,
                                 double epsilon) {
  // NaN fails every comparison: without the isfinite check it would pass
  // `epsilon <= 0.0` and the budget test, and switch the dataset's budget
  // off for good.
  if (!std::isfinite(epsilon) || epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be finite and positive");
  }
  std::lock_guard lock(mu_);
  Ledger& ledger = ledgers_[dataset_id];
  if (ledger.spent + epsilon > total_budget_ + 1e-12) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "budget exhausted for '%s': spent=%.4f + eps=%.4f > %.4f",
                  dataset_id.c_str(), ledger.spent, epsilon, total_budget_);
    return Status::OutOfRange(buf);
  }
  ledger.spent += epsilon;
  ledger.charged += epsilon;
  return Status::Ok();
}

Status PrivacyAccountant::Refund(const std::string& dataset_id,
                                 double epsilon) {
  if (!std::isfinite(epsilon) || epsilon <= 0.0) {
    return Status::InvalidArgument(
        "refund epsilon must be finite and positive");
  }
  std::lock_guard lock(mu_);
  auto it = ledgers_.find(dataset_id);
  if (it == ledgers_.end()) {
    return Status::FailedPrecondition("refund for '" + dataset_id +
                                      "': nothing was charged");
  }
  // Bounded by spent: refunding more than was charged must not mint
  // budget beyond the configured total. The ledger records the amount
  // actually returned so conservation still balances after a clamp.
  double actual = std::min(epsilon, it->second.spent);
  it->second.spent -= actual;
  it->second.refunded += actual;
  return Status::Ok();
}

double PrivacyAccountant::Spent(const std::string& dataset_id) const {
  std::lock_guard lock(mu_);
  auto it = ledgers_.find(dataset_id);
  return it == ledgers_.end() ? 0.0 : it->second.spent;
}

double PrivacyAccountant::Remaining(const std::string& dataset_id) const {
  return std::max(0.0, total_budget_ - Spent(dataset_id));
}

BudgetCheckpoint PrivacyAccountant::Checkpoint(
    const std::string& dataset_id) const {
  std::lock_guard lock(mu_);
  auto it = ledgers_.find(dataset_id);
  if (it == ledgers_.end()) return {};
  return {it->second.spent, it->second.charged, it->second.refunded};
}

Status PrivacyAccountant::VerifyConservation() const {
  std::lock_guard lock(mu_);
  for (const auto& [dataset, ledger] : ledgers_) {
    char buf[224];
    // Tolerance absorbs float non-associativity between the running
    // balance and the two cumulative sums, nothing more.
    if (std::fabs(ledger.spent - (ledger.charged - ledger.refunded)) > 1e-9) {
      std::snprintf(buf, sizeof(buf),
                    "budget conservation violated for '%s': spent=%.12f != "
                    "charged=%.12f - refunded=%.12f",
                    dataset.c_str(), ledger.spent, ledger.charged,
                    ledger.refunded);
      return Status::Internal(buf);
    }
    if (ledger.spent < 0.0 || ledger.spent > total_budget_ + 1e-9) {
      std::snprintf(buf, sizeof(buf),
                    "budget balance out of range for '%s': spent=%.12f "
                    "budget=%.12f",
                    dataset.c_str(), ledger.spent, total_budget_);
      return Status::Internal(buf);
    }
    if (ledger.refunded > ledger.charged + 1e-9) {
      std::snprintf(buf, sizeof(buf),
                    "refunds exceed charges for '%s': refunded=%.12f > "
                    "charged=%.12f",
                    dataset.c_str(), ledger.refunded, ledger.charged);
      return Status::Internal(buf);
    }
  }
  return Status::Ok();
}

void PrivacyAccountant::RestoreLedger(const std::string& dataset_id,
                                      double charged_total) {
  std::lock_guard lock(mu_);
  ledgers_[dataset_id] =
      Ledger{.spent = charged_total, .charged = charged_total};
}

}  // namespace upa::dp
