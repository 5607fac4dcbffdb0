#include "upa/range_enforcer.h"

#include <algorithm>
#include <cmath>

#include "common/status.h"

namespace upa::core {

bool RangeEnforcer::NearlyEqual(double a, double b) const {
  if (a == b) return true;
  double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
  return std::fabs(a - b) <= kTolerance * scale;
}

size_t RangeEnforcer::CountDifferences(const std::vector<double>& current,
                                       const std::vector<double>& prior) const {
  // Partition counts always match within one enforcer instance; a prior
  // entry of different arity (different partitioning config) trivially
  // differs everywhere.
  if (current.size() != prior.size()) return current.size();
  size_t diff = 0;
  for (size_t j = 0; j < current.size(); ++j) {
    if (!NearlyEqual(current[j], prior[j])) ++diff;
  }
  return diff;
}

EnforcerDecision RangeEnforcer::EnforceLocked(
    std::vector<double>& partition_outputs,
    const std::function<std::vector<double>(size_t total_removed)>&
        recompute) {
  EnforcerDecision decision;
  decision.prior_queries_checked = prior_.size();
  UPA_CHECK_MSG(partition_outputs.size() >= 2,
                "enforcer needs at least two partitions");

  // Algorithm 2's invariant quantifies over the whole registry: the
  // current outputs must differ from EVERY prior on >= 2 partitions at the
  // same time. Removing records to separate from prior k changes the
  // outputs, which can re-collide them with an already-checked prior
  // j < k — so after any removal the scan restarts until a full pass over
  // the registry performs no removal (or the cap is hit). Termination:
  // each extra pass implies at least one removal, and removals are
  // monotone and capped by kMaxRemovals.
  size_t total_removed = 0;
  bool removed_this_pass = true;
  while (removed_this_pass && !decision.removal_capped) {
    removed_this_pass = false;
    ++decision.fixpoint_passes;
    for (const auto& prior : prior_) {
      size_t diff = CountDifferences(partition_outputs, prior);
      // Algorithm 2 lines 8-15: while fewer than two partitions differ,
      // the two inputs may be neighbouring — remove two records and
      // recompute.
      while (diff < 2) {
        decision.attack_suspected = true;
        if (total_removed + 2 > kMaxRemovals) {
          decision.removal_capped = true;
          break;
        }
        total_removed += 2;
        removed_this_pass = true;
        partition_outputs = recompute(total_removed);
        diff = CountDifferences(partition_outputs, prior);
      }
      if (decision.removal_capped) break;
    }
  }
  decision.records_removed = total_removed;
  return decision;
}

void RangeEnforcer::RegisterLocked(std::vector<double> partition_outputs) {
  prior_.push_back(std::move(partition_outputs));
}

size_t RangeEnforcer::registry_size() const {
  std::lock_guard lock(mu_);
  return prior_.size();
}

std::vector<std::vector<double>> RangeEnforcer::RegistrySnapshot() const {
  std::lock_guard lock(mu_);
  return prior_;
}

void RangeEnforcer::RestoreRegistry(std::vector<std::vector<double>> priors) {
  std::lock_guard lock(mu_);
  prior_ = std::move(priors);
}

}  // namespace upa::core
