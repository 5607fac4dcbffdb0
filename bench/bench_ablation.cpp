// Ablations of UPA's design choices (DESIGN.md per-experiment index):
//   A. Exclusion scan: the paper's naive O(n²) per-exclusion reduce vs
//      the O(n) prefix/suffix exclusion scan (identical results, large
//      speedup at large n — the cost the union-preserving formulation
//      avoids re-paying).
//   B. Sensitivity rule: influence-percentile (default; matches the
//      paper's reported accuracy) vs the literal Algorithm 1 output-range
//      rule, against ground truth per query.
//   C. Range Enforcer on/off: the enforcer's share of end-to-end time
//      (§VI-D attributes the local-query overhead mostly to it).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util/harness.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "upa/exclusion.h"
#include "upa/group.h"
#include "upa/runner.h"

using namespace upa;

namespace {

void AblationExclusion() {
  TablePrinter table(
      {"n", "naive (ms)", "scan (ms)", "speedup", "max |diff|"});
  Rng rng(7);
  constexpr size_t kDim = 4;
  for (size_t n : {100u, 300u, 1000u, 3000u, 10000u}) {
    std::vector<double> mapped(n * kDim);
    for (double& v : mapped) v = rng.UniformDouble(-1, 1);
    Stopwatch naive_watch;
    auto naive = core::NaiveExclusionAggregate(mapped, kDim);
    double naive_ms = naive_watch.ElapsedMillis();
    Stopwatch scan_watch;
    auto scan = core::ExclusionAggregate(mapped, kDim);
    double scan_ms = scan_watch.ElapsedMillis();

    double max_diff = 0;
    for (size_t i = 0; i < n * kDim; ++i) {
      max_diff = std::max(max_diff, std::fabs(naive[i] - scan[i]));
    }
    table.AddRow({std::to_string(n), TablePrinter::FormatDouble(naive_ms, 2),
                  TablePrinter::FormatDouble(scan_ms, 2),
                  TablePrinter::FormatDouble(naive_ms / std::max(1e-6, scan_ms), 1),
                  TablePrinter::FormatScientific(max_diff, 1)});
  }
  table.Print("Ablation A: naive per-exclusion reduce vs exclusion scan");
}

void AblationSensitivityRule(const bench::BenchEnv& env) {
  queries::QuerySuite suite(env.MakeSuiteConfig());
  TablePrinter table({"Query", "GT sens", "sampled-max", "influence-P99",
                      "output-range", "smax err", "P99 err", "range err"});
  for (const auto& name : queries::QuerySuite::AllQueryNames()) {
    auto gt = suite.ComputeGroundTruth(name, env.sample_n, env.seed);
    if (!gt.ok()) continue;
    double truth = gt.value().local_sensitivity;

    double vals[3];
    int i = 0;
    for (auto rule : {core::SensitivityRule::kSampledMax,
                      core::SensitivityRule::kInfluencePercentile,
                      core::SensitivityRule::kOutputRange}) {
      core::UpaConfig cfg = env.MakeUpaConfig();
      cfg.add_noise = false;
      cfg.sensitivity_rule = rule;
      core::UpaRunner runner(cfg);
      auto result = runner.Run(suite.MakeInstance(name), env.seed);
      vals[i++] = result.ok() ? result.value().local_sensitivity : -1.0;
    }
    auto rel = [&](double v) {
      return truth > 0 ? TablePrinter::FormatPercent((v - truth) / truth, 1)
                       : std::string("-");
    };
    table.AddRow({name, TablePrinter::FormatDouble(truth, 4),
                  TablePrinter::FormatDouble(vals[0], 4),
                  TablePrinter::FormatDouble(vals[1], 4),
                  TablePrinter::FormatDouble(vals[2], 4), rel(vals[0]),
                  rel(vals[1]), rel(vals[2])});
  }
  table.Print("Ablation B: sensitivity rule vs ground truth "
              "(see DESIGN.md on the paper's Algorithm-1/evaluation tension)");
}

void AblationEnforcer(const bench::BenchEnv& env) {
  queries::QuerySuite suite(env.MakeSuiteConfig());
  TablePrinter table({"Query", "UPA w/ enforcer (ms)", "UPA w/o (ms)",
                      "enforcer share"});
  for (const auto& name : queries::QuerySuite::AllQueryNames()) {
    double ms_on = 0, ms_off = 0;
    size_t reps = std::max<size_t>(2, env.runs / 3);
    for (bool enforcer_on : {true, false}) {
      core::UpaConfig cfg = env.MakeUpaConfig();
      cfg.enable_enforcer = enforcer_on;
      core::UpaRunner runner(cfg);
      std::vector<double> ms;
      for (size_t r = 0; r < reps; ++r) {
        auto result = runner.Run(suite.MakeInstance(name), env.seed + r);
        if (result.ok()) ms.push_back(result.value().seconds.total * 1e3);
      }
      (enforcer_on ? ms_on : ms_off) = Mean(ms);
    }
    table.AddRow({name, TablePrinter::FormatDouble(ms_on, 2),
                  TablePrinter::FormatDouble(ms_off, 2),
                  TablePrinter::FormatPercent(
                      ms_on > 0 ? (ms_on - ms_off) / ms_on : 0.0, 1)});
  }
  table.Print("Ablation C: Range Enforcer cost share");
}

void AblationGroupPrivacy(const bench::BenchEnv& env) {
  // The paper's §VI-E future work: extend iDP to groups of k individuals
  // by reusing the sampled-neighbour outputs. One UPA run per query feeds
  // the whole k-sweep.
  queries::QuerySuite suite(env.MakeSuiteConfig());
  TablePrinter table({"Query", "k=1", "k=2", "k=5", "k=10",
                      "noise scale-up (k=10 vs 1)"});
  for (const auto& name : queries::QuerySuite::AllQueryNames()) {
    core::UpaConfig cfg = env.MakeUpaConfig();
    cfg.add_noise = false;
    core::UpaRunner runner(cfg);
    auto result = runner.Run(suite.MakeInstance(name), env.seed);
    if (!result.ok()) continue;
    auto sweep = core::GroupSensitivitySweep(
        result.value().neighbour_outputs, result.value().raw_output, 10);
    double k1 = sweep[0].sensitivity;
    table.AddRow({name, TablePrinter::FormatDouble(k1, 4),
                  TablePrinter::FormatDouble(sweep[1].sensitivity, 4),
                  TablePrinter::FormatDouble(sweep[4].sensitivity, 4),
                  TablePrinter::FormatDouble(sweep[9].sensitivity, 4),
                  k1 > 0 ? TablePrinter::FormatDouble(
                               sweep[9].sensitivity / k1, 2) + "x"
                         : "-"});
  }
  table.Print("Ablation D: group-privacy extension (paper §VI-E) — "
              "k-group sensitivity from one run's sampled neighbours");
}

void AblationManualBounds(const bench::BenchEnv& env) {
  // The systems UPA replaces (GUPT, Airavat, PINQ — paper §VII) require
  // the analyst to guess an output range; the guess is usually padded for
  // safety. This ablation quantifies the utility cost: released-value
  // noise magnitude under UPA's inferred sensitivity vs manual ranges
  // padded 10x / 100x, at the paper's ε = 0.1.
  queries::QuerySuite suite(env.MakeSuiteConfig());
  TablePrinter table({"Query", "true output", "rel. noise UPA",
                      "rel. noise manual(10x pad)", "utility gain"});
  for (const auto& name : queries::QuerySuite::AllQueryNames()) {
    core::UpaConfig cfg = env.MakeUpaConfig();
    cfg.add_noise = false;
    core::UpaRunner runner(cfg);
    auto result = runner.Run(suite.MakeInstance(name), env.seed);
    auto gt = suite.ComputeGroundTruth(name, env.sample_n, env.seed);
    if (!result.ok() || !gt.ok()) continue;
    double truth = std::fabs(suite.RunNative(name));
    if (truth == 0.0) continue;
    double upa_sens = result.value().local_sensitivity;
    // A careful analyst who knew the exact sensitivity would still pad it
    // for safety; assume a 10x padding of the true value.
    double manual_sens = gt.value().local_sensitivity * 10.0;
    double base = std::sqrt(2.0) / cfg.epsilon;  // Laplace sd factor
    double upa_rel = base * upa_sens / truth;
    double manual_rel = base * manual_sens / truth;
    table.AddRow({name, TablePrinter::FormatDouble(truth, 2),
                  TablePrinter::FormatScientific(upa_rel, 2),
                  TablePrinter::FormatScientific(manual_rel, 2),
                  upa_rel > 0 ? TablePrinter::FormatDouble(
                                    manual_rel / upa_rel, 1) + "x"
                              : "-"});
  }
  table.Print("Ablation E: relative noise magnitude at eps=0.1, "
              "UPA-inferred vs padded manual bounds (GUPT/Airavat-style)");
}

}  // namespace

int main() {
  bench::BenchEnv env = bench::BenchEnv::FromEnv();
  bench::PrintBanner("Ablations — exclusion scan, sensitivity rule, enforcer",
                     env);
  AblationExclusion();
  AblationSensitivityRule(env);
  AblationEnforcer(env);
  AblationGroupPrivacy(env);
  AblationManualBounds(env);
  return 0;
}
