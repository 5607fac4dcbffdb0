// UpaRunner: UPA's Algorithm 1 (Inferring Sensitivity) + iDP enforcement.
//
// One runner instance models one deployed UPA service: its RANGE ENFORCER
// registry persists across Run() calls, which is what lets it recognize a
// repeated query on a neighbouring dataset (the attack of §III).
//
// Workflow per run (paper Figure 1):
//   1. Partition & Sample  — uniformly sample n records S from x; the rest
//      is S'; records are assigned to enforcer partitions by index.
//   2. Parallel Map        — delegated to QueryInstance::execute_phases,
//      which maps S, S' and n synthetic domain records on the engine (no
//      domain records on a hinted run: only the neighbour outputs, which a
//      hinted run skips, consume them).
//   3. Union-Preserving Reduce — R(M(S')) is computed once (inside
//      execute_phases, per partition) and reused to derive f(x), the
//      partition outputs f(x_j), and all sampled-neighbour outputs
//      f(x - s_i), f(x + s̄_i) via exclusion scans, inline on the
//      calling thread.
//   4. iDP Enforcement     — MLE-fit a normal to the neighbour outputs,
//      take [P1, P99] as the output range Ô_f and its width as the local
//      sensitivity; run RANGE ENFORCER; clamp; add Laplace noise.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/normal_fit.h"
#include "common/rng.h"
#include "common/status.h"
#include "upa/exclusion.h"
#include "upa/query_instance.h"
#include "upa/range_enforcer.h"

namespace upa::core {

/// How the local sensitivity is derived from the sampled-neighbour
/// outputs. The paper is internally inconsistent here (see DESIGN.md):
/// Algorithm 1 as written fits a normal to the neighbour *outputs* and
/// takes P99 − P1 — but that rule cannot produce the paper's own TPCH1
/// accuracy (RMSE 2.6e-9 against a Definition II.1 ground truth of 1; the
/// literal rule yields ≈ 2·2.326 = 4.65). The accuracy the paper reports
/// is consistent with evaluating Definition II.1 on the sampled
/// neighbours — the greatest observed |f(x) − f(y)| — which is the
/// default here. All three variants are implemented; bench_ablation
/// compares them against ground truth.
enum class SensitivityRule {
  /// localSen = max over sampled neighbours of |f(x) − f(y)| (Definition
  /// II.1 on the sample); Ô_f = [f(x) − localSen, f(x) + localSen].
  kSampledMax,
  /// localSen = max(P99 of the normal MLE-fitted to |f(x) − f(y)|,
  /// sampled max) — extrapolates smooth tails beyond the sample;
  /// Ô_f = [f(x) − localSen, f(x) + localSen].
  kInfluencePercentile,
  /// Algorithm 1 literal: localSen = P99 − P1 of the normal MLE-fitted to
  /// the neighbour outputs; Ô_f = [P1, P99].
  kOutputRange,
};

struct UpaConfig {
  /// Sample size n. The paper's default (1000) is statistically sufficient
  /// for the MLE normal fit; datasets smaller than n are sampled fully.
  size_t sample_n = 1000;
  SensitivityRule sensitivity_rule = SensitivityRule::kSampledMax;
  /// Privacy budget per release (the paper evaluates at 0.1).
  double epsilon = 0.1;
  /// Disable to measure Algorithm 1 alone (ablation only; no iDP claim).
  bool enable_enforcer = true;
  /// Disable to inspect the un-noised pipeline in tests.
  bool add_noise = true;
};

/// Floor for the inferred local sensitivity. A degenerate query whose
/// sampled neighbours all produce the same output would otherwise infer
/// sensitivity 0 and release the exact clamped value with Laplace scale 0
/// — no noise at all. The floor keeps the release mechanism honest;
/// `UpaRunResult::degenerate_sensitivity` reports when it engaged.
inline constexpr double kMinSensitivity = 1e-9;

struct PhaseSeconds {
  double sample = 0.0;   // phase 1
  double map = 0.0;      // phase 2 + S'-reduce (execute_phases)
  double reduce = 0.0;   // phase 3b: exclusion scans + combines
  double enforce = 0.0;  // phase 4: fit + enforcer + clamp + noise
  double total = 0.0;
};

struct UpaRunResult {
  /// f(x) after any enforcer removals, before clamping and noise.
  double raw_output = 0.0;
  /// The value returned to the analyst: clamp(raw) + Lap(sensitivity/ε).
  double released_output = 0.0;
  /// The reduced value R(M(x)) the outputs derive from.
  Vec reduced;
  /// Inferred local sensitivity (width of out_range).
  double local_sensitivity = 0.0;
  /// The constrained output range Ô_f ([P1, P99] of the normal fit).
  Interval out_range;
  /// Scalarized outputs of all 2n sampled neighbouring datasets.
  std::vector<double> neighbour_outputs;
  /// Final per-partition outputs (what the enforcer registers).
  std::vector<double> partition_outputs;
  EnforcerDecision enforcer;
  /// True when the inferred sensitivity fell below kMinSensitivity (all
  /// sampled neighbours produced identical outputs) and the floor was
  /// applied. local_sensitivity/out_range reflect the
  /// floored values.
  bool degenerate_sensitivity = false;
  PhaseSeconds seconds;
  /// Number of records actually sampled (min(n, |x|)).
  size_t sample_size = 0;
};

/// Previously inferred sensitivity + output range for a query shape, as
/// cached by the service layer (keyed by plan fingerprint × dataset
/// epoch). Passing it to Run skips the domain records, phase 3b's
/// exclusion scans and the sensitivity fit — the expensive part of a
/// repeat query — while leaving the release path (partition outputs,
/// enforcer, clamp, noise) intact, so a hinted run releases bit-identically
/// to the full run that produced the hint.
struct SensitivityHint {
  double local_sensitivity = 0.0;
  Interval out_range;
  bool degenerate = false;
};

class UpaRunner {
 public:
  explicit UpaRunner(UpaConfig config = {})
      : config_(config), enforcer_(std::make_shared<RangeEnforcer>()) {}

  /// Executes one query end-to-end. `seed` drives sampling, synthetic
  /// domain records and noise; same (query, seed) → same result.
  /// With `hint`, reuses a previously inferred sensitivity/output range
  /// instead of computing them (see SensitivityHint).
  Result<UpaRunResult> Run(const QueryInstance& query, uint64_t seed,
                           const SensitivityHint* hint = nullptr);

  RangeEnforcer& enforcer() { return *enforcer_; }
  /// The registry, shareable between runners (the service shares one per
  /// dataset). The enforcer itself is thread-safe; Run takes a Session
  /// lock across its Enforce → Register window.
  std::shared_ptr<RangeEnforcer> shared_enforcer() const { return enforcer_; }
  void share_enforcer(std::shared_ptr<RangeEnforcer> enforcer) {
    UPA_CHECK(enforcer != nullptr);
    enforcer_ = std::move(enforcer);
  }
  const UpaConfig& config() const { return config_; }

 private:
  UpaConfig config_;
  std::shared_ptr<RangeEnforcer> enforcer_;
};

}  // namespace upa::core
