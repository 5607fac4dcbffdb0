// RANGE ENFORCER (paper Algorithm 2).
//
// Detects whether the submitted query is a repeat of a prior query on the
// same or a neighbouring dataset — the attack in UPA's threat model — by
// comparing the query's per-partition output values against a registry of
// all previously answered queries. Two queries whose outputs differ on
// fewer than two partitions may be the same query on neighbouring inputs
// (the overlapped partition reduces to the same value because MapReduce
// operators process records independently); in that case the enforcer
// removes records from the current input (two at a time) until every prior
// query differs on at least two partitions, guaranteeing non-neighbourhood.
//
// Removals are re-checked against the *whole* registry: separating the
// outputs from prior k can move them back into collision with a prior
// j < k, so the removal loop runs to a fixpoint where all priors differ on
// >= 2 partitions simultaneously (Algorithm 2's invariant is universally
// quantified over the registry, not per-prior).
//
// The released value is then clamped into the inferred output range Ô_f,
// which upper-bounds the achievable local sensitivity and yields the ε-iDP
// proof of §IV-C.
//
// Thread safety: a registry may be shared between runners. A release path
// needs Enforce and the subsequent Register to see the registry atomically
// (no other query may register in between), so both go through Session,
// which holds the registry lock across that window. The snapshot, restore
// and size accessors each take the same lock.
#pragma once

#include <cstddef>
#include <functional>
#include <mutex>
#include <vector>

namespace upa::core {

/// Outcome of one enforcement pass.
struct EnforcerDecision {
  /// True if any prior query matched on >= P-1 partitions (Algorithm 2's
  /// "Case 2": a potential repeat-query attack).
  bool attack_suspected = false;
  /// Records removed from the current input to force non-neighbourhood.
  size_t records_removed = 0;
  /// Prior queries the current one was compared against.
  size_t prior_queries_checked = 0;
  /// True if the removal loop hit its cap without separating the outputs
  /// (possible for degenerate constant queries); the release still goes
  /// through the clamp, which is what carries the privacy guarantee.
  bool removal_capped = false;
  /// Full passes over the registry the fixpoint loop needed (1 when no
  /// removal re-collided with an earlier prior).
  size_t fixpoint_passes = 0;
};

class RangeEnforcer {
 public:
  /// Relative tolerance for "same output value": deterministic
  /// re-aggregation of identical partitions is bitwise equal, so this only
  /// needs to absorb benign float noise.
  static constexpr double kTolerance = 1e-9;
  /// Cap on the total records removed per enforcement.
  static constexpr size_t kMaxRemovals = 64;

  RangeEnforcer() = default;
  RangeEnforcer(const RangeEnforcer&) = delete;
  RangeEnforcer& operator=(const RangeEnforcer&) = delete;

  size_t registry_size() const;

  /// Copy of the registered per-partition outputs, in registration order
  /// (order matters: Enforce iterates the registry in this order). Used by
  /// the service's debug state; doubles are preserved bit-exactly.
  std::vector<std::vector<double>> RegistrySnapshot() const;
  /// Recovery: replace the registry wholesale with journaled priors.
  void RestoreRegistry(std::vector<std::vector<double>> priors);

  /// Exposed for tests: the "same value" predicate used in comparisons.
  bool NearlyEqual(double a, double b) const;

  /// Holds the registry lock across an Enforce → Register window so the
  /// pair is atomic with respect to other sessions sharing the registry.
  /// The only way to enforce or register (UpaRunner, the service).
  class Session {
   public:
    explicit Session(RangeEnforcer& enforcer)
        : enforcer_(enforcer), lock_(enforcer.mu_) {}

    /// Runs Algorithm 2's comparison + removal loop to a fixpoint.
    ///
    /// `partition_outputs` is the current query's per-partition output
    /// value (updated in place if records are removed).
    /// `recompute(total_removed)` must return the partition outputs after
    /// removing `total_removed` records from the current input's sample
    /// set. `recompute` runs with the registry lock held.
    EnforcerDecision Enforce(
        std::vector<double>& partition_outputs,
        const std::function<std::vector<double>(size_t total_removed)>&
            recompute) {
      return enforcer_.EnforceLocked(partition_outputs, recompute);
    }
    /// Records the final partition outputs of an answered query
    /// (Algorithm 2 lines 19–21).
    void Register(std::vector<double> partition_outputs) {
      enforcer_.RegisterLocked(std::move(partition_outputs));
    }

   private:
    RangeEnforcer& enforcer_;
    std::unique_lock<std::mutex> lock_;
  };

 private:
  friend class Session;

  EnforcerDecision EnforceLocked(
      std::vector<double>& partition_outputs,
      const std::function<std::vector<double>(size_t total_removed)>&
          recompute);
  void RegisterLocked(std::vector<double> partition_outputs);
  size_t CountDifferences(const std::vector<double>& current,
                          const std::vector<double>& prior) const;

  mutable std::mutex mu_;
  std::vector<std::vector<double>> prior_;
};

}  // namespace upa::core
