// Figure 4(b) reproduction: UPA's execution time versus the sample size n,
// plus the engine cache hit rate in the sampled-neighbour phase.
//
// Paper result shape: runtime stays near-constant up to n = 10⁵ because the
// repeatedly-touched sample blocks hit Spark's memory cache (hit rate rises
// from 10.3% to 48.9% inside the sampled-neighbour computation). Here the
// analogous effect is the block cache on non-private scans: every extra
// phase run over the sample re-reads cached tables.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util/harness.h"
#include "common/stats.h"
#include "common/table_printer.h"
#include "upa/runner.h"

int main() {
  using namespace upa;
  bench::BenchEnv env = bench::BenchEnv::FromEnv();
  bench::PrintBanner("Figure 4(b) — UPA time vs sample size n", env);

  queries::QuerySuite suite(env.MakeSuiteConfig());
  const std::vector<size_t> sample_sizes = {100, 1000, 10000, 100000};

  TablePrinter table({"Query", "n", "UPA (ms)", "vs n=1000", "cache hit rate"});
  for (const auto& name : queries::QuerySuite::AllQueryNames()) {
    double baseline_ms = 0.0;
    for (size_t n : sample_sizes) {
      size_t effective = std::min(n, suite.NumPrivateRecords(name));
      core::UpaConfig cfg = env.MakeUpaConfig();
      cfg.sample_n = effective;
      core::UpaRunner runner(cfg);

      std::vector<double> upa_ms;
      double hit_rate = 0.0;
      size_t reps = std::max<size_t>(2, env.runs / 3);
      for (size_t r = 0; r < reps; ++r) {
        engine::MetricsSnapshot before = suite.ctx().metrics().Snapshot();
        auto result = runner.Run(suite.MakeInstance(name), env.seed + r + n);
        if (!result.ok()) {
          std::fprintf(stderr, "UPA failed: %s\n",
                       result.status().ToString().c_str());
          return 1;
        }
        upa_ms.push_back(result.value().seconds.total * 1e3);
        hit_rate =
            (suite.ctx().metrics().Snapshot() - before).cache_hit_rate();
      }
      double mean_ms = Mean(upa_ms);
      if (n == 1000) baseline_ms = mean_ms;
      table.AddRow(
          {name,
           std::to_string(n) +
               (effective < n ? " (capped " + std::to_string(effective) + ")"
                              : ""),
           TablePrinter::FormatDouble(mean_ms, 2),
           baseline_ms > 0
               ? TablePrinter::FormatDouble(mean_ms / baseline_ms, 2)
               : "-",
           TablePrinter::FormatPercent(hit_rate, 1)});
    }
  }
  table.Print("Figure 4(b): UPA time across sample sizes "
              "(shape: near-constant; cache hits rise with reuse)");
  return 0;
}
