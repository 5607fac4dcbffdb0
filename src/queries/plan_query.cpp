#include "queries/plan_query.h"

#include <algorithm>
#include <numeric>

#include "common/cancel.h"
#include "relational/columnar.h"
#include "relational/optimizer.h"

namespace upa::queries {

core::QueryInstance MakePlanQuery(
    engine::ExecContext* ctx, std::shared_ptr<const rel::PlanExecutor> executor,
    const tpch::TpchDataset* data, const tpch::TpchQuery& query,
    std::shared_ptr<const rel::ColumnarTable> private_rows_override,
    bool optimize) {
  UPA_CHECK(ctx != nullptr && executor != nullptr && data != nullptr);

  tpch::TpchQuery planned = query;
  if (optimize) {
    rel::OptimizerOptions opt;
    opt.private_table = query.private_table;
    planned.plan = rel::Optimize(query.plan, data->catalog(), opt);
  }

  core::QueryInstance instance;
  instance.name = query.name;
  instance.ctx = ctx;
  instance.num_records = private_rows_override != nullptr
                             ? private_rows_override->num_rows()
                             : data->table(query.private_table).NumRows();
  // Count/Sum queries release the aggregate itself: post = identity,
  // scalarize = first coordinate (defaults).

  instance.execute_phases =
      [ctx, executor = std::move(executor), data, query = std::move(planned),
       rows_override = std::move(private_rows_override)](
          std::span<const size_t> sample_indices, size_t num_partitions,
          size_t num_domain, uint64_t seed) {
        core::MappedBatches out;
        const std::vector<size_t> sample(sample_indices.begin(),
                                         sample_indices.end());
        // One block cache per release: its passes share the public side of
        // the plan, and nothing outlives the release.
        engine::BlockCache cache(&ctx->metrics());
        // A pass cut short by the request's cancel token or deadline hands
        // back the batches built so far; the runner's post-map check turns
        // the trip into the release's status (and the service refunds the
        // charge). Any other failure is the query's (an unknown column,
        // say): it rides back as the batches' status, which the runner
        // returns in place of a release.
        auto failed = [&out](const Status& status) {
          const CancelToken* token = CancelScope::Current();
          const bool tripped =
              token != nullptr && token->cancelled() &&
              (status.code() == StatusCode::kCancelled ||
               status.code() == StatusCode::kDeadlineExceeded);
          if (!tripped) out.status = status;
          return std::move(out);
        };

        // --- 1. Provenance pass: one scan of the whole private table gives
        //        the per-partition aggregates of S' and M(s_i) for every
        //        sampled record (joinDP's index tracking).
        rel::ExecOptions opts;
        // Release passes ride the vectorized engine; the row oracle exists
        // for the differential tests, not for production runs.
        opts.engine = rel::ExecEngine::kColumnar;
        opts.private_table = query.private_table;
        opts.replace_private_rows = rows_override.get();
        opts.sample_rows = &sample;
        opts.partitions = num_partitions;
        opts.cache = &cache;
        Result<rel::ExecResult> r = ctx->TimePhase(
            "upa/plan_provenance",
            [&] { return executor->Execute(query.plan, opts); });
        if (!r.ok()) return failed(r.status());
        // Each record maps to its one additive contribution (dim 1), so the
        // pass's own buffers are the batches.
        out.sprime_partials.values = std::move(r.value().partition_outputs);
        out.sample_mapped.values = std::move(r.value().sample_contributions);

        // --- 2. Domain pass: synthetic rows standing in for D \ x, drawn
        //        straight into columns, every one of them sampled, so the
        //        same one pass gives each its M(s̄_i). A hinted release asks
        //        for none and skips it.
        if (num_domain == 0) return out;
        Rng rng = Rng::ForStream(seed, "upa/domain/" + query.name);
        Result<std::shared_ptr<const rel::ColumnarTable>> synthetic =
            data->SampleColumns(query.private_table, num_domain, rng);
        if (!synthetic.ok()) return failed(synthetic.status());
        std::vector<size_t> all(num_domain);
        std::iota(all.begin(), all.end(), size_t{0});
        opts.replace_private_rows = synthetic.value().get();
        opts.sample_rows = &all;
        opts.partitions = 1;
        r = ctx->TimePhase("upa/plan_domain",
                           [&] { return executor->Execute(query.plan, opts); });
        if (!r.ok()) return failed(r.status());
        out.domain_mapped.values = std::move(r.value().sample_contributions);
        return out;
      };
  return instance;
}

}  // namespace upa::queries
