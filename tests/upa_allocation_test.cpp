// Allocation regression guard for the SQL release path.
//
// This binary replaces the global operator new with a counting one, so it
// can bound the heap allocations of one UpaRunner::Run over a MakePlanQuery
// instance: a cold run (unhinted, on an executor that has not seen the
// plan: one full provenance pass, the domain pass drawn straight into
// columns, the exclusion scan) and a hinted one (an S′ memo hit and no
// domain pass). The three queries are the release benchmark's templates
// at its scale (10,000 orders, a 4-thread pool).
//
// The bounds hold the flat release path to its allocation budget: no Row
// or Value per domain record, no Vec per mapped record or per combine, no
// ExactSum per sampled record. Before that path, this test counted
// 13,417-13,660 allocations in a cold run of these templates and
// 1,820-2,005 in a hinted one.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/exact_sum.h"
#include "queries/plan_query.h"
#include "relational/sql_parser.h"
#include "tpch/generator.h"
#include "upa/runner.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

void* Allocate(std::size_t size, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  return Allocate(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return Allocate(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return Allocate(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return Allocate(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size, alignof(std::max_align_t));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return Allocate(size, static_cast<std::size_t>(align));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return operator new(size, align, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace upa {
namespace {

/// Heap allocations `fn` makes, on any thread, while it runs.
template <typename Fn>
uint64_t CountAllocations(Fn&& fn) {
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_seq_cst);
  fn();
  g_counting.store(false, std::memory_order_seq_cst);
  return g_allocations.load(std::memory_order_relaxed);
}

/// Upper bounds on one run's allocations, cold and hinted. The measured
/// counts on 4 threads were 638-1,030 cold and 97-335 hinted; the slack
/// absorbs the pool's scheduling and standard-library differences, and
/// each bound stays under a fifth (cold) and a third (hinted) of the
/// counts before the flat path.
constexpr uint64_t kMaxColdAllocations = 2000;
constexpr uint64_t kMaxHintedAllocations = 500;

TEST(AllocationGuardTest, ColdAndHintedSqlRunsStayWithinBudget) {
  const tpch::TpchDataset data(tpch::TpchConfig{.num_orders = 10000});
  const rel::Catalog catalog = data.catalog();
  engine::ExecContext ctx(
      engine::ExecConfig{.threads = 4, .default_partitions = 4});
  // Build the scanned tables' columnar forms outside the counted runs.
  (void)data.lineitem().Columnar();
  (void)data.orders().Columnar();

  const char* templates[] = {
      "SELECT COUNT(*) FROM lineitem WHERE l_quantity >= 4 AND "
      "l_shipdate >= 120 AND l_shipdate < 2000",
      "SELECT SUM(l_extendedprice * l_discount) FROM lineitem "
      "WHERE l_shipdate >= 300 AND l_shipdate < 2200",
      "SELECT COUNT(*) FROM orders JOIN lineitem ON o_orderkey = l_orderkey "
      "WHERE o_orderdate >= 100 AND o_orderdate < 2000 AND l_quantity < 47",
  };
  for (const char* sql : templates) {
    Result<rel::PlanPtr> parsed = rel::ParseSql(sql);
    ASSERT_TRUE(parsed.ok()) << sql;
    tpch::TpchQuery query;
    query.name = sql;
    query.plan = parsed.value();
    query.private_table = "lineitem";
    auto run = [&](const std::shared_ptr<const rel::PlanExecutor>& executor,
                   uint64_t seed, const core::SensitivityHint* hint) {
      core::UpaRunner runner;
      core::QueryInstance instance =
          queries::MakePlanQuery(&ctx, executor, &data, query);
      Result<core::UpaRunResult> result = Status::Internal("not run");
      const uint64_t allocations =
          CountAllocations([&] { result = runner.Run(instance, seed, hint); });
      EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
      return std::pair{allocations, std::move(result)};
    };

    // A first cold run warms what outlives a release (the metrics' phase
    // and histogram entries); the counted one runs on a fresh executor.
    (void)run(std::make_shared<const rel::PlanExecutor>(&ctx, &catalog), 1,
              nullptr);
    auto executor = std::make_shared<const rel::PlanExecutor>(&ctx, &catalog);
    auto [cold, reference] = run(executor, 2, nullptr);
    ASSERT_TRUE(reference.ok());
    const core::SensitivityHint hint{reference.value().local_sensitivity,
                                     reference.value().out_range,
                                     reference.value().degenerate_sensitivity};
    const uint64_t memo_hits = ctx.metrics().Snapshot().memo_hits;
    auto [hinted, hinted_result] = run(executor, 3, &hint);
    EXPECT_EQ(ctx.metrics().Snapshot().memo_hits, memo_hits + 1) << sql;

    std::printf("[ allocations ] cold %llu, hinted %llu: %s\n",
                static_cast<unsigned long long>(cold),
                static_cast<unsigned long long>(hinted), sql);
    EXPECT_LE(cold, kMaxColdAllocations) << sql;
    EXPECT_LE(hinted, kMaxHintedAllocations) << sql;
  }
}

// An exact sum is a fixed-size accumulator, infinities and NaN included:
// no add, merge, subtraction or rounding allocates.
TEST(AllocationGuardTest, ExactSumNeverAllocates) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double weights[] = {kInf, -kInf, std::numeric_limits<double>::quiet_NaN(),
                            1e308, -0.0, 2.5, -3.75};
  ExactSum even, odd;
  double rounded = 0.0;
  const uint64_t allocations = CountAllocations([&] {
    for (int i = 0; i < 100000; ++i) {
      (i % 2 == 0 ? even : odd).Add(weights[i % std::size(weights)]);
    }
    even.Merge(odd);
    even.Subtract(odd);
    rounded = even.Round();
  });
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(std::bit_cast<uint64_t>(rounded),
            std::bit_cast<uint64_t>(std::numeric_limits<double>::quiet_NaN()));
}

}  // namespace
}  // namespace upa
