#include "upa/runner.h"

#include <algorithm>
#include <cmath>

#include "common/cancel.h"
#include "common/failpoint.h"
#include "common/timer.h"
#include "dp/mechanism.h"

namespace upa::core {
namespace {

/// Percentiles of the fitted normal that bound Ô_f: Algorithm 1's
/// [P1, P99].
constexpr double kLoPercentile = 1.0;
constexpr double kHiPercentile = 99.0;
/// Enforcer partitions: Algorithm 2 splits the input into two.
constexpr size_t kEnforcerPartitions = 2;

/// Reduces the sampled records of each enforcer partition, excluding the
/// last `removed` sample records (the enforcer's removal order is
/// deterministic: newest-index first), into row j of `partials`, whose
/// storage is reused across calls. Each partition accumulates its own
/// records in ascending sample order; a partition none of whose kept
/// records holds a value is an identity row. This runs under the registry
/// lock, so it never touches the engine pool: a pool waiter may pick up
/// another request's task, which then blocks on a lock a /stats reader
/// holds while it waits for this registry.
void SamplePartitionPartials(const VecRows& sample_mapped, size_t dim,
                             const std::vector<size_t>& sample_partition,
                             size_t removed, VecRows& partials) {
  partials.values.assign(kEnforcerPartitions * dim, -0.0);
  partials.identity.assign(kEnforcerPartitions, 1);
  const size_t n = sample_partition.size();
  const size_t keep = n > removed ? n - removed : 0;
  for (size_t i = 0; i < keep; ++i) {
    const size_t j = sample_partition[i];
    double* acc = partials.values.data() + j * dim;
    const double* row = sample_mapped.values.data() + i * dim;
    for (size_t d = 0; d < dim; ++d) acc[d] = CellSum(acc[d], row[d]);
    if (!sample_mapped.IsIdentity(i)) partials.identity[j] = 0;
  }
}

/// out = a ⊕ b over dim values, reusing out's storage: the identity (an
/// empty out) when `has_value` says neither side holds a value. A null `a`
/// is the identity, and so is a row of -0.0 cells, which the sum passes
/// through unchanged.
void CombineInto(const double* a, const double* b, size_t dim,
                 bool has_value, Vec& out) {
  if (!has_value) {
    out.clear();
    return;
  }
  out.resize(dim);
  for (size_t d = 0; d < dim; ++d) {
    out[d] = CellSum(a == nullptr ? -0.0 : a[d], b[d]);
  }
}

/// The cells of a reduced value, or null for the identity.
const double* CellsOf(const Vec& v) { return v.empty() ? nullptr : v.data(); }

/// True when `rows` holds exactly `count` rows of dim values (and one flag
/// per row, if it flags any).
bool HasRows(const VecRows& rows, size_t count, size_t dim) {
  return rows.values.size() == count * dim &&
         (rows.identity.empty() || rows.identity.size() == count);
}

}  // namespace

Result<UpaRunResult> UpaRunner::Run(const QueryInstance& query,
                                    uint64_t seed,
                                    const SensitivityHint* hint) {
  if (query.num_records == 0) {
    return Status::InvalidArgument("query '" + query.name +
                                   "': empty input dataset");
  }
  if (!query.execute_phases) {
    return Status::InvalidArgument("query '" + query.name +
                                   "': missing execute_phases");
  }
  if (query.ctx == nullptr) {
    return Status::InvalidArgument("query '" + query.name +
                                   "': missing ExecContext");
  }

  UpaRunResult result;
  Stopwatch total_watch;

  // Cancellation points sit between phases (and, inside the map phase's
  // engine passes, at every morsel boundary). The last check runs before
  // the enforcer session: past that point the query registers and
  // releases, so a later cancellation must NOT abandon the run — "refund
  // iff nothing was released" depends on cancelled runs never reaching
  // Register.
  UPA_RETURN_IF_ERROR(CancelScope::CheckCurrent());

  // ---- Phase 1: Partition & Sample -------------------------------------
  UPA_FAILPOINT("upa/phase_sample");
  Stopwatch phase_watch;
  const size_t n = std::min(config_.sample_n, query.num_records);
  result.sample_size = n;
  Rng sampler = Rng::ForStream(seed, "upa/sampler/" + query.name);
  std::vector<size_t> sample_indices =
      sampler.SampleWithoutReplacement(query.num_records, n);
  std::vector<size_t> sample_partition(n);
  for (size_t i = 0; i < n; ++i) {
    sample_partition[i] = sample_indices[i] % kEnforcerPartitions;
  }
  result.seconds.sample = phase_watch.ElapsedSeconds();

  // ---- Phase 2 + S'-side of phase 3 (delegated to the query) -----------
  // Domain records only feed the neighbour outputs, which a hinted run
  // never computes, so a hinted run asks for none.
  UPA_RETURN_IF_ERROR(CancelScope::CheckCurrent());
  UPA_FAILPOINT("upa/phase_map");
  phase_watch.Reset();
  const size_t num_domain = hint == nullptr ? n : 0;
  MappedBatches batches = query.execute_phases(
      sample_indices, kEnforcerPartitions, num_domain, seed);
  result.seconds.map = phase_watch.ElapsedSeconds();
  // A token that tripped mid-map leaves partially-built batches behind
  // (ParallelFor skips the remaining morsels), so the cancellation must be
  // surfaced before the shape checks get a chance to call it corruption.
  // So must a pass that failed: the query, not the runner, was at fault.
  UPA_RETURN_IF_ERROR(CancelScope::CheckCurrent());
  UPA_RETURN_IF_ERROR(batches.status);
  const size_t dim = batches.dim;
  const VecRows& sample = batches.sample_mapped;
  const VecRows& domain = batches.domain_mapped;
  if (dim == 0 || !HasRows(sample, n, dim)) {
    return Status::Internal(
        "query '" + query.name +
        "': execute_phases returned wrong sample batch size");
  }
  if (!HasRows(batches.sprime_partials, kEnforcerPartitions, dim)) {
    return Status::Internal(
        "query '" + query.name +
        "': execute_phases returned wrong partition count");
  }
  const size_t num_added = domain.values.size() / dim;
  if (!HasRows(domain, num_added, dim)) {
    return Status::Internal(
        "query '" + query.name +
        "': execute_phases returned a ragged domain batch");
  }

  // ---- Phase 3b: Union-Preserving Reduce --------------------------------
  UPA_RETURN_IF_ERROR(CancelScope::CheckCurrent());
  UPA_FAILPOINT("upa/phase_reduce");
  phase_watch.Reset();
  const Vec r_sprime = TotalAggregate(batches.sprime_partials, dim);
  Vec f_vec = VecSum::Combine(r_sprime, TotalAggregate(sample, dim));

  // Sampled-neighbour outputs: removals f(x - s_i), additions f(x + s̄_i),
  // derived from the per-exclusion reductions R(S \ s_i). They only feed
  // the sensitivity fit, so a hinted run skips them entirely — the
  // expensive part of a repeated query shape.
  // Phases 3b/4 run inline: their work is O(n·dim), well below one pool
  // round-trip at the paper's n. One Vec holds each neighbour's reduced
  // value in turn.
  Vec neighbour;
  if (hint == nullptr) {
    const std::vector<double> excl = ExclusionAggregate(sample.values, dim);
    const size_t sample_values = sample.CountValues(n);
    result.neighbour_outputs.reserve(n + num_added);
    for (size_t i = 0; i < n; ++i) {
      // R(S \ s_i) holds a value iff some other sampled record does.
      const bool others = sample_values > (sample.IsIdentity(i) ? 0 : 1);
      CombineInto(CellsOf(r_sprime), excl.data() + i * dim, dim,
                  !r_sprime.empty() || others, neighbour);
      result.neighbour_outputs.push_back(query.OutputOf(neighbour));
    }
    for (size_t j = 0; j < num_added; ++j) {
      CombineInto(CellsOf(f_vec), domain.values.data() + j * dim, dim,
                  !f_vec.empty() || !domain.IsIdentity(j), neighbour);
      result.neighbour_outputs.push_back(query.OutputOf(neighbour));
    }
  }
  result.seconds.reduce = phase_watch.ElapsedSeconds();

  // ---- Phase 4: iDP Enforcement -----------------------------------------
  UPA_RETURN_IF_ERROR(CancelScope::CheckCurrent());
  UPA_FAILPOINT("upa/phase_enforce");
  phase_watch.Reset();
  const double f_x = query.OutputOf(f_vec);
  if (hint != nullptr) {
    // Reuse the sensitivity/range a previous run of this query shape
    // inferred (same dataset epoch, so the inference inputs are
    // unchanged). The enforcer/clamp/noise path below is untouched —
    // soundness never depended on where the range came from.
    result.local_sensitivity = hint->local_sensitivity;
    result.out_range = hint->out_range;
    result.degenerate_sensitivity = hint->degenerate;
  } else if (config_.sensitivity_rule == SensitivityRule::kOutputRange) {
    result.out_range = NormalPercentileInterval(
        result.neighbour_outputs, kLoPercentile, kHiPercentile);
    result.local_sensitivity = result.out_range.width();
  } else {
    // Influence rules: Definition II.1 evaluated on the sampled
    // neighbours. kSampledMax is the greatest observed |f(x) - f(y)|;
    // kInfluencePercentile additionally extrapolates the tail with the
    // fitted normal's P99 (useful for smooth influence distributions,
    // overshooting for binary ones). Either way this is an *estimate* of
    // the true maximum; soundness comes from the Range Enforcer's clamp,
    // not from here.
    std::vector<double> influences;
    influences.reserve(result.neighbour_outputs.size());
    double max_influence = 0.0;
    for (double y : result.neighbour_outputs) {
      influences.push_back(std::fabs(y - f_x));
      max_influence = std::max(max_influence, influences.back());
    }
    result.local_sensitivity = max_influence;
    if (config_.sensitivity_rule == SensitivityRule::kInfluencePercentile) {
      NormalParams fit = FitNormalMle(influences);
      result.local_sensitivity = std::max(
          result.local_sensitivity,
          std::max(0.0, NormalQuantile(fit, kHiPercentile / 100.0)));
    }
    result.out_range = Interval{f_x - result.local_sensitivity,
                                f_x + result.local_sensitivity};
  }

  // Degenerate-sensitivity floor: when every sampled neighbour produced
  // the same output, local_sensitivity is 0 and the Laplace scale would be
  // 0 too — the clamped value would be released exactly, noiselessly.
  if (result.local_sensitivity < kMinSensitivity) {
    result.degenerate_sensitivity = true;
    result.local_sensitivity = kMinSensitivity;
    if (config_.sensitivity_rule == SensitivityRule::kOutputRange) {
      // Keep the rule's invariant width == local_sensitivity.
      double mid = 0.5 * (result.out_range.lo + result.out_range.hi);
      result.out_range = Interval{mid - 0.5 * kMinSensitivity,
                                  mid + 0.5 * kMinSensitivity};
    } else {
      result.out_range =
          Interval{f_x - kMinSensitivity, f_x + kMinSensitivity};
    }
  }

  // Per-partition outputs f(x_j) = output of R(S'_j) ⊕ R(S_j), computed
  // inline: the enforcer calls this with the registry lock held. The
  // partials and the combined value reuse their storage across calls.
  const VecRows& sprime = batches.sprime_partials;
  VecRows partials;
  auto partition_outputs_for = [&](size_t removed) {
    SamplePartitionPartials(sample, dim, sample_partition, removed, partials);
    std::vector<double> outs(kEnforcerPartitions);
    for (size_t j = 0; j < kEnforcerPartitions; ++j) {
      CombineInto(sprime.values.data() + j * dim,
                  partials.values.data() + j * dim, dim,
                  !sprime.IsIdentity(j) || !partials.IsIdentity(j),
                  neighbour);
      outs[j] = query.OutputOf(neighbour);
    }
    return outs;
  };
  result.partition_outputs = partition_outputs_for(0);

  // Point of no return: past this check the query registers in the shared
  // registry and releases. A cancellation observed here still refunds; one
  // arriving later is ignored (the release already happened).
  UPA_RETURN_IF_ERROR(CancelScope::CheckCurrent());

  if (config_.enable_enforcer) {
    // The registry may be shared with other runners (the service shares
    // one per dataset): the Session lock keeps this query's Enforce and
    // Register atomic, so no concurrent release can slip a registration
    // in between and invalidate the fixpoint just computed.
    RangeEnforcer::Session session(*enforcer_);
    result.enforcer =
        session.Enforce(result.partition_outputs, partition_outputs_for);
    if (result.enforcer.records_removed > 0) {
      // x was shrunk: recompute the reduced value without the removed
      // sample records (newest-index-first removal order).
      SamplePartitionPartials(sample, dim, sample_partition,
                              result.enforcer.records_removed, partials);
      f_vec = VecSum::Combine(r_sprime, TotalAggregate(partials, dim));
    }
    session.Register(result.partition_outputs);
  }

  result.reduced = f_vec;
  result.raw_output = query.OutputOf(f_vec);

  double clamped = result.out_range.Clamp(result.raw_output);
  if (config_.add_noise) {
    Rng noise = Rng::ForStream(seed, "upa/noise/" + query.name);
    result.released_output = dp::LaplaceMechanism(
        clamped, result.local_sensitivity, config_.epsilon, noise);
  } else {
    result.released_output = clamped;
  }
  result.seconds.enforce = phase_watch.ElapsedSeconds();

  result.seconds.total = total_watch.ElapsedSeconds();
  return result;
}

}  // namespace upa::core
