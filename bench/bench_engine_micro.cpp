// Engine micro-benchmarks (google-benchmark): throughput of the mini-Spark
// substrate's narrow and wide operators — the cost model underneath every
// experiment's timing numbers.
#include <benchmark/benchmark.h>

#include <atomic>
#include <numeric>
#include <utility>
#include <vector>

#include "common/exact_sum.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/dataset.h"
#include "engine/shuffle.h"

namespace {

using upa::Rng;
using upa::engine::Dataset;
using upa::engine::ExecConfig;
using upa::engine::ExecContext;

ExecContext& Ctx() {
  static ExecContext ctx(ExecConfig{.threads = 0, .default_partitions = 4});
  return ctx;
}

std::vector<double> RandomDoubles(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.UniformDouble(0, 1);
  return v;
}

void BM_DatasetMap(benchmark::State& state) {
  auto ds = Dataset<double>::FromVector(
      &Ctx(), RandomDoubles(static_cast<size_t>(state.range(0)), 1));
  for (auto _ : state) {
    auto mapped = ds.Map([](const double& v) { return v * 2.0 + 1.0; });
    benchmark::DoNotOptimize(mapped.Count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DatasetMap)->Arg(10000)->Arg(100000);

void BM_DatasetFilter(benchmark::State& state) {
  auto ds = Dataset<double>::FromVector(
      &Ctx(), RandomDoubles(static_cast<size_t>(state.range(0)), 2));
  for (auto _ : state) {
    auto filtered = ds.Filter([](const double& v) { return v < 0.5; });
    benchmark::DoNotOptimize(filtered.Count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DatasetFilter)->Arg(10000)->Arg(100000);

void BM_DatasetReduce(benchmark::State& state) {
  auto ds = Dataset<double>::FromVector(
      &Ctx(), RandomDoubles(static_cast<size_t>(state.range(0)), 3));
  for (auto _ : state) {
    double sum = ds.Reduce([](double a, double b) { return a + b; }, 0.0);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DatasetReduce)->Arg(10000)->Arg(100000);

void BM_ShuffleByKey(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(4);
  std::vector<std::pair<int, double>> kv(n);
  for (auto& [k, v] : kv) {
    k = static_cast<int>(rng.UniformU64(1000));
    v = rng.UniformDouble(0, 1);
  }
  auto ds = Dataset<std::pair<int, double>>::FromVector(&Ctx(), kv);
  for (auto _ : state) {
    auto shuffled = upa::engine::ShuffleByKey(ds, 4);
    benchmark::DoNotOptimize(shuffled.Count());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ShuffleByKey)->Arg(10000)->Arg(100000);

// ParallelForMorsels throughput at a given pool size (default grain) — the
// pool's one parallel-for, which the columnar kernels and every
// ParallelFor fan out on. Work per index is a small vector accumulation,
// the shape of a per-neighbour Combine+OutputOf.
void BM_ParallelForMorsels(benchmark::State& state) {
  upa::ThreadPool pool(static_cast<size_t>(state.range(0)));
  const size_t n = 4096;
  const size_t dim = 64;
  std::vector<std::vector<double>> vecs(n, std::vector<double>(dim, 1.0));
  std::vector<double> out(n);
  for (auto _ : state) {
    pool.ParallelForMorsels(n, 0, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        double acc = 0.0;
        for (double v : vecs[i]) acc += v;
        out[i] = acc;
      }
    });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ParallelForMorsels)->Arg(1)->Arg(2)->Arg(4);

// Nested fan-out from inside a worker — exercises the help-run path that
// makes ParallelFor reentrant (and used to deadlock).
void BM_NestedParallelFor(benchmark::State& state) {
  upa::ThreadPool pool(static_cast<size_t>(state.range(0)));
  std::atomic<size_t> sink{0};
  for (auto _ : state) {
    pool.ParallelFor(8, [&](size_t) {
      pool.ParallelFor(64, [&](size_t i) {
        sink.fetch_add(i, std::memory_order_relaxed);
      });
    });
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(state.iterations() * 8 * 64);
}
BENCHMARK(BM_NestedParallelFor)->Arg(1)->Arg(2)->Arg(4);

// Failpoint guard cost in a hot loop. With no site active the macro is one
// relaxed atomic load (AnyActive) — Arg(0). Arg(1) activates a site that
// never fires (every-2^62 trigger) to price the slow path's registry lookup.
// The delta between Arg(0) and plain loop iteration is the overhead every
// guarded seam pays in production, and it must stay at noise level.
void BM_FailpointGuard(benchmark::State& state) {
  upa::Failpoints::Instance().DeactivateAll();
  if (state.range(0) == 1) {
    upa::Failpoints::Spec spec;
    spec.action = upa::Failpoints::Action::kError;
    spec.trigger = upa::Failpoints::Trigger::kEveryN;
    spec.every_n = uint64_t{1} << 62;
    upa::Failpoints::Instance().Activate("bench/other_site", spec);
  }
  auto guarded = []() -> upa::Status {
    UPA_FAILPOINT("bench/hot_loop");
    return upa::Status::Ok();
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(guarded().ok());
  }
  upa::Failpoints::Instance().DeactivateAll();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FailpointGuard)->Arg(0)->Arg(1);

void BM_HashJoin(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(6);
  std::vector<std::pair<int, int>> left(n), right(n / 4);
  for (auto& [k, v] : left) {
    k = static_cast<int>(rng.UniformU64(n / 4 + 1));
    v = 1;
  }
  for (size_t i = 0; i < right.size(); ++i) {
    right[i] = {static_cast<int>(i), 2};
  }
  auto l = Dataset<std::pair<int, int>>::FromVector(&Ctx(), left);
  auto r = Dataset<std::pair<int, int>>::FromVector(&Ctx(), right);
  for (auto _ : state) {
    auto joined = upa::engine::HashJoin(l, r, 4);
    benchmark::DoNotOptimize(joined.Count());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashJoin)->Arg(10000)->Arg(100000);

// Per-add cost of the exact accumulator every engine sums through: 30,000
// weights drawn like `l_extendedprice * l_discount` (Arg unit=0) or
// COUNT's ones (unit=1), into one accumulator or into two by row parity
// (accs=2), as the one pass splits rows across two enforcer partitions.
void BM_ExactSumAdd(benchmark::State& state) {
  const bool unit = state.range(0) == 1;
  const size_t parity_mask = state.range(1) == 2 ? 1 : 0;
  Rng rng(8);
  std::vector<double> weights(30000);
  for (double& w : weights) {
    const double quantity = 1.0 + static_cast<double>(rng.UniformU64(50));
    const double price = quantity * rng.UniformDouble(900.0, 1100.0);
    const double discount = 0.01 * static_cast<double>(rng.UniformU64(11));
    w = unit ? 1.0 : price * discount;
  }
  for (auto _ : state) {
    upa::ExactSum sums[2];
    for (size_t i = 0; i < weights.size(); ++i) {
      sums[i & parity_mask].Add(weights[i]);
    }
    benchmark::DoNotOptimize(sums[0].Round());
    benchmark::DoNotOptimize(sums[1].Round());
  }
  state.SetItemsProcessed(state.iterations() * weights.size());
}
BENCHMARK(BM_ExactSumAdd)
    ->ArgNames({"unit", "accs"})
    ->Args({0, 1})
    ->Args({0, 2})
    ->Args({1, 1})
    ->Args({1, 2});

}  // namespace

BENCHMARK_MAIN();
