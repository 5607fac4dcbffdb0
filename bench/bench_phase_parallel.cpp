// Sequential vs parallel phases 3b/4 (exclusion scan + neighbour-output
// evaluation + influence + partition partials) across Vec dimensionality
// and sample size.
//
// Phases 1/2 are identical in both modes (execute_phases always runs on
// the engine), so the table isolates exactly the work the parallel phase
// pipeline moves onto the pool: `seq` and `par` are the per-run minimum of
// seconds.reduce + seconds.enforce with UpaConfig::parallel_phases off/on.
// The `identical` column verifies the determinism contract — the two modes
// must produce bit-identical neighbour_outputs, local_sensitivity and
// raw_output (fixed chunk boundaries, fixed combine orders).
//
// Knobs: UPA_SAMPLE_N, UPA_RUNS, UPA_THREADS (pool size for the parallel
// mode; defaults to 4 so the table is comparable across machines),
// UPA_SEED.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/harness.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "upa/runner.h"
#include "upa/simple_query.h"

using namespace upa;

namespace {

/// A d-dimensional vector query in the shape of the ML workloads: each
/// record spreads its value across d coordinates; the released scalar is
/// the L2 norm of the reduced vector.
core::QueryInstance MakeVecQuery(engine::ExecContext* ctx,
                                 std::shared_ptr<std::vector<double>> values,
                                 size_t dim, const std::string& name) {
  core::SimpleQuerySpec<double> spec;
  spec.name = name;
  spec.ctx = ctx;
  spec.records = values;
  spec.map_record = [dim](const double& v) {
    core::Vec m(dim);
    for (size_t j = 0; j < dim; ++j) m[j] = v * (1.0 + 0.01 * j);
    return m;
  };
  spec.sample_domain = [](Rng& rng) { return rng.UniformDouble(0.0, 1.0); };
  spec.scalarize = [](const core::Vec& v) { return core::L2Norm(v); };
  return core::MakeSimpleQuery(std::move(spec));
}

struct PhaseTiming {
  double seconds_3b4 = 0.0;
  core::UpaRunResult result;
  /// Pool tasks the last run launched, summed over its phases.
  uint64_t tasks = 0;
};

PhaseTiming RunOnce(engine::ExecContext* ctx,
                    std::shared_ptr<std::vector<double>> values, size_t dim,
                    size_t sample_n, bool parallel, size_t runs,
                    uint64_t seed) {
  core::UpaConfig cfg;
  cfg.sample_n = sample_n;
  cfg.add_noise = false;
  cfg.enable_enforcer = false;  // isolate 3b/4 compute, not registry state
  cfg.parallel_phases = parallel;
  PhaseTiming best;
  best.seconds_3b4 = 1e100;
  for (size_t r = 0; r < runs; ++r) {
    core::UpaRunner runner(cfg);
    // NB: same query name in both modes — the sampler/domain RNG streams
    // are keyed by it, and the bit-identity check needs identical inputs.
    engine::MetricsSnapshot before = ctx->metrics().Snapshot();
    auto result = runner.Run(
        MakeVecQuery(ctx, values, dim, "vec_d" + std::to_string(dim)), seed);
    UPA_CHECK(result.ok());
    best.tasks = 0;
    for (const auto& [name, tasks] :
         (ctx->metrics().Snapshot() - before).phase_tasks) {
      best.tasks += tasks;
    }
    double t = result.value().seconds.reduce + result.value().seconds.enforce;
    if (t < best.seconds_3b4) best.seconds_3b4 = t;
    best.result = std::move(result).value();
  }
  return best;
}

}  // namespace

int main() {
  bench::BenchEnv env = bench::BenchEnv::FromEnv();
  const size_t threads = env.threads == 0 ? 4 : env.threads;
  bench::PrintBanner("Phase 3b/4 parallelism — sequential vs engine pool",
                     env);
  std::printf("pool threads (parallel mode): %zu, hardware threads: %u\n\n",
              threads, std::thread::hardware_concurrency());

  engine::ExecContext ctx(
      engine::ExecConfig{.threads = threads, .default_partitions = 4});

  TablePrinter table({"dim", "n", "seq 3b/4 (ms)", "par 3b/4 (ms)", "speedup",
                      "identical", "par tasks"});
  for (size_t dim : {1u, 8u, 64u}) {
    for (size_t n : {env.sample_n / 5, env.sample_n}) {
      if (n == 0) continue;
      auto values = std::make_shared<std::vector<double>>();
      Rng rng(env.seed + dim);
      for (size_t i = 0; i < 5 * n; ++i) {
        values->push_back(rng.UniformDouble(0.0, 1.0));
      }
      PhaseTiming seq = RunOnce(&ctx, values, dim, n, /*parallel=*/false,
                                env.runs, env.seed);
      PhaseTiming par = RunOnce(&ctx, values, dim, n, /*parallel=*/true,
                                env.runs, env.seed);

      bool identical =
          seq.result.raw_output == par.result.raw_output &&
          seq.result.local_sensitivity == par.result.local_sensitivity &&
          seq.result.neighbour_outputs == par.result.neighbour_outputs &&
          seq.result.partition_outputs == par.result.partition_outputs;
      table.AddRow(
          {std::to_string(dim), std::to_string(n),
           TablePrinter::FormatDouble(seq.seconds_3b4 * 1e3, 3),
           TablePrinter::FormatDouble(par.seconds_3b4 * 1e3, 3),
           TablePrinter::FormatDouble(
               seq.seconds_3b4 / std::max(1e-9, par.seconds_3b4), 2),
           identical ? "yes" : "NO", std::to_string(par.tasks)});
      UPA_CHECK_MSG(identical,
                    "parallel phases diverged from the sequential path");
    }
  }
  table.Print("Phase 3b/4: sequential vs parallel (min over runs)");
  std::printf(
      "\nNote: speedup tracks physical cores; on a single-core container the\n"
      "parallel path measures scheduling overhead only (record the table\n"
      "from a multi-core box for the scaling claim).\n");
  return 0;
}
