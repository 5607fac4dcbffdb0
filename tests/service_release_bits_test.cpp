// Pins the released bits of the SQL release path. Through UpaService, with
// a journal, the RANGE ENFORCER, the sensitivity cache and noise on, the
// release benchmark's three query templates (COUNT with three filters,
// SUM(l_extendedprice * l_discount) with two, COUNT over orders ⋈ lineitem)
// are released with four literal variants each: once cold, then twice
// hinted from the cache. Every response's local_sensitivity, out_range,
// records_removed and flags, plus the dataset's enforcer registry, are
// hashed and compared with a constant, on a 1-thread and a 4-thread
// ExecContext. All of these are exact arithmetic under the default
// kSampledMax rule; the noisy `released` value goes through std::log in the
// Laplace draw, so it is left out to keep the pin independent of libm.
//
// A change that must not move any released bit leaves the hash alone; one
// that does move them has to say so by re-pinning it. The suite is in CI's
// TSan filter.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/hash.h"
#include "queries/plan_query.h"
#include "relational/optimizer.h"
#include "relational/sql_parser.h"
#include "service/service.h"
#include "tpch/generator.h"

namespace upa::service {
namespace {

/// The hash the same source printed before any change to the release
/// path; see the file comment.
constexpr uint64_t kPinnedHash = 0x0bbce2c035d36163ULL;

const tpch::TpchDataset& Data() {
  static const tpch::TpchDataset* data =
      new tpch::TpchDataset(tpch::TpchConfig{.num_orders = 2000, .seed = 11});
  return *data;
}

/// Four literal variants of each release benchmark template.
std::vector<std::string> Shapes() {
  std::vector<std::string> out;
  char buf[256];
  const long long count_literals[][3] = {
      {1, 0, 2000}, {3, 120, 2000}, {5, 300, 2200}, {8, 450, 2400}};
  for (const auto& [q, lo, hi] : count_literals) {
    std::snprintf(buf, sizeof(buf),
                  "SELECT COUNT(*) FROM lineitem WHERE l_quantity >= %lld AND "
                  "l_shipdate >= %lld AND l_shipdate < %lld",
                  q, lo, hi);
    out.push_back(buf);
  }
  const long long sum_literals[][2] = {
      {0, 1900}, {100, 2000}, {250, 2200}, {480, 2500}};
  for (const auto& [lo, hi] : sum_literals) {
    std::snprintf(buf, sizeof(buf),
                  "SELECT SUM(l_extendedprice * l_discount) FROM lineitem "
                  "WHERE l_shipdate >= %lld AND l_shipdate < %lld",
                  lo, hi);
    out.push_back(buf);
  }
  const long long join_literals[][3] = {
      {0, 1900, 44}, {150, 2100, 47}, {300, 2200, 49}, {420, 2400, 51}};
  for (const auto& [lo, hi, q] : join_literals) {
    std::snprintf(buf, sizeof(buf),
                  "SELECT COUNT(*) FROM orders JOIN lineitem ON o_orderkey = "
                  "l_orderkey WHERE o_orderdate >= %lld AND o_orderdate < %lld "
                  "AND l_quantity < %lld",
                  lo, hi, q);
    out.push_back(buf);
  }
  return out;
}

/// Releases every shape cold, then twice hinted, through a fresh journaled
/// service on a `threads`-thread context, and hashes the exact parts of
/// every response and the final registry.
uint64_t ReleaseHash(size_t threads) {
  char tmp[] = "/tmp/upa-bits-XXXXXX";
  EXPECT_NE(::mkdtemp(tmp), nullptr);
  const std::string dir = tmp;

  engine::ExecContext ctx(
      engine::ExecConfig{.threads = threads, .default_partitions = threads});
  const rel::Catalog catalog = Data().catalog();
  auto executor = std::make_shared<const rel::PlanExecutor>(&ctx, &catalog);

  ServiceConfig config;
  config.journal_dir = dir;
  config.journal_fsync = false;  // process-death durability is enough here
  config.budget_per_dataset = 10.0;
  PayloadWriter hashed;
  {
    UpaService service(&ctx, config);
    const std::vector<std::string> shapes = Shapes();
    for (uint64_t round = 0; round < 3; ++round) {
      for (size_t i = 0; i < shapes.size(); ++i) {
        Result<rel::PlanPtr> parsed = rel::ParseSql(shapes[i]);
        EXPECT_TRUE(parsed.ok()) << shapes[i];
        if (!parsed.ok()) return 0;
        rel::OptimizerOptions opt;
        opt.private_table = "lineitem";
        tpch::TpchQuery query;
        query.name = shapes[i];
        query.plan = rel::Optimize(parsed.value(), catalog, opt);
        query.private_table = "lineitem";

        QueryRequest request;
        request.tenant = "analyst";
        request.dataset_id = "lineitem";
        request.query = queries::MakePlanQuery(&ctx, executor, &Data(), query,
                                               nullptr, /*optimize=*/false);
        request.epsilon = 0.1;
        request.seed = 1000 * round + i + 1;
        Result<QueryResponse> response = service.Execute(std::move(request));
        EXPECT_TRUE(response.ok()) << response.status().ToString();
        if (!response.ok()) return 0;
        const QueryResponse& r = response.value();
        EXPECT_EQ(r.sensitivity_cache_hit, round > 0) << shapes[i];
        hashed.PutDouble(r.local_sensitivity);
        hashed.PutDouble(r.out_range.lo);
        hashed.PutDouble(r.out_range.hi);
        hashed.PutU64(r.records_removed);
        hashed.PutU8(r.attack_suspected ? 1 : 0);
        hashed.PutU8(r.sensitivity_cache_hit ? 1 : 0);
        hashed.PutU8(r.degenerate_sensitivity ? 1 : 0);
      }
    }
    for (const std::vector<double>& prior :
         service.DebugState("lineitem").registry) {
      hashed.PutU64(prior.size());
      for (double v : prior) hashed.PutDouble(v);
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return Fnv1a(hashed.bytes());
}

TEST(ReleaseBitsTest, HashIsPinnedAtOneAndFourThreads) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    const uint64_t hash = ReleaseHash(threads);
    std::printf("release bits hash (threads=%zu): 0x%016" PRIx64 "\n", threads,
                hash);
    EXPECT_EQ(hash, kPinnedHash) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace upa::service
