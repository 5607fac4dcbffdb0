// Adapter from a TPC-H logical plan to a UPA QueryInstance.
//
// execute_phases performs at most two engine passes of the plan (paper
// §V-C), sharing one release-scoped block cache. Both are the engine's one
// provenance pass (rel::ExecOptions::sample_rows):
//   1. Provenance pass — the plan over the whole private table, once. A
//      surviving row that descends from a sampled record adds its weight to
//      that record's slot (M(s_i), joinDP's index tracking); every other
//      row adds it to its enforcer partition (Algorithm 1's ReduceByPar on
//      S'). R(M(S')) is thus computed once, in the same scan as the sample.
//   2. Domain pass — the plan over n synthetic private-table rows (the
//      "record added from D \ x" neighbours), drawn straight into columns
//      (tpch::TpchDataset::SampleColumns), every one of them sampled. Only
//      an unhinted release needs them (num_domain > 0); a hinted one
//      reuses a cached sensitivity and skips the pass.
// A pass cut short by the request's cancel token or deadline returns the
// batches built so far; the runner's post-map check turns the trip into
// the release's status. Any other pass failure (an unknown column or join
// key, a table with no record domain) becomes MappedBatches::status,
// which the runner returns: a bad query fails its release, not the
// process.
//
// The mapped value of private record r is its additive contribution to the
// aggregate (via join-index provenance); the reducer is scalar addition,
// so every batch has dimension 1 and is the pass's own result buffer.
#pragma once

#include <memory>
#include <vector>

#include "relational/executor.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "upa/query_instance.h"

namespace upa::queries {

/// `private_rows_override`, when set, substitutes the private table's rows
/// (a churned copy, built into columns once) for every phase run; sample
/// indices address it.
///
/// By default the plan passes through the cost-based optimizer first
/// (relational/optimizer.h) with the query's private table exempted from
/// build-side hints. Safe for DP: every optimized plan is bit-identical to
/// the original, so sensitivities and noise are unchanged. `optimize =
/// false` runs the plan exactly as given (differential baselines).
core::QueryInstance MakePlanQuery(
    engine::ExecContext* ctx, std::shared_ptr<const rel::PlanExecutor> executor,
    const tpch::TpchDataset* data, const tpch::TpchQuery& query,
    std::shared_ptr<const rel::ColumnarTable> private_rows_override =
        nullptr,
    bool optimize = true);

}  // namespace upa::queries
