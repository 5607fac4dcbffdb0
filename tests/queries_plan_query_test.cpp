// MakePlanQuery's release passes: the one provenance pass, plus the domain
// pass on unhinted releases only, checked against the three-run path they
// replace; hinted and unhinted releases through UpaRunner; the block
// cache's scope of exactly one release; and repeated releases answered
// from the executor's S′ memo. The suite names are in CI's 7-row-fragment
// and TSan filters.
#include "queries/plan_query.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "relational/sql_parser.h"
#include "upa/runner.h"

namespace upa::queries {
namespace {

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

const tpch::TpchDataset& Data() {
  static const tpch::TpchDataset* ds = new tpch::TpchDataset(
      tpch::TpchConfig{.num_orders = 300,
                       .max_lineitems_per_order = 5,
                       .reference_skew = 1.1,
                       .seed = 5});
  return *ds;
}

/// The release benchmark's three query templates (fixed literals), with
/// lineitem as the privacy unit. MakePlanQuery optimizes them.
std::vector<tpch::TpchQuery> Templates() {
  const char* sql[] = {
      "SELECT COUNT(*) FROM lineitem WHERE l_quantity >= 4 AND "
      "l_shipdate >= 120 AND l_shipdate < 2000",
      "SELECT SUM(l_extendedprice * l_discount) FROM lineitem "
      "WHERE l_shipdate >= 300 AND l_shipdate < 2200",
      "SELECT COUNT(*) FROM orders JOIN lineitem ON o_orderkey = l_orderkey "
      "WHERE o_orderdate >= 100 AND o_orderdate < 2000 AND l_quantity < 47",
  };
  std::vector<tpch::TpchQuery> out;
  for (const char* q : sql) {
    Result<rel::PlanPtr> parsed = rel::ParseSql(q);
    EXPECT_TRUE(parsed.ok()) << q;
    tpch::TpchQuery query;
    query.name = q;
    query.plan = parsed.value();
    query.private_table = "lineitem";
    out.push_back(std::move(query));
  }
  return out;
}

/// The path the one pass replaced: an exclude run for S', an include run
/// with contribution tracking for the sample, and the domain run, all on
/// the unoptimized plan without a cache.
core::MappedBatches ThreeRunPhases(const rel::PlanExecutor& exec,
                                   const tpch::TpchQuery& q,
                                   std::span<const size_t> sample_indices,
                                   size_t num_partitions, size_t num_domain,
                                   uint64_t seed) {
  const std::vector<size_t> sample(sample_indices.begin(),
                                   sample_indices.end());
  core::MappedBatches out;
  rel::ExecOptions sprime;
  sprime.private_table = q.private_table;
  sprime.exclude_rows = &sample;
  sprime.partitions = num_partitions;
  Result<rel::ExecResult> s = exec.Execute(q.plan, sprime);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  for (double p : s.value().partition_outputs) {
    out.sprime_partials.push_back(core::Vec{p});
  }

  rel::ExecOptions include;
  include.private_table = q.private_table;
  include.include_rows = &sample;
  include.track_contributions = true;
  Result<rel::ExecResult> in = exec.Execute(q.plan, include);
  EXPECT_TRUE(in.ok()) << in.status().ToString();
  for (size_t idx : sample) {
    auto it = in.value().contributions.find(idx);
    out.sample_mapped.push_back(
        core::Vec{it == in.value().contributions.end() ? 0.0 : it->second});
  }

  Rng rng = Rng::ForStream(seed, "upa/domain/" + q.name);
  std::vector<rel::Row> synthetic;
  for (size_t i = 0; i < num_domain; ++i) {
    synthetic.push_back(Data().SampleRow(q.private_table, rng));
  }
  rel::ExecOptions domain;
  domain.private_table = q.private_table;
  domain.replace_private_rows = &synthetic;
  domain.track_contributions = true;
  Result<rel::ExecResult> d = exec.Execute(q.plan, domain);
  EXPECT_TRUE(d.ok()) << d.status().ToString();
  for (size_t i = 0; i < num_domain; ++i) {
    auto it = d.value().contributions.find(i);
    out.domain_mapped.push_back(
        core::Vec{it == d.value().contributions.end() ? 0.0 : it->second});
  }
  return out;
}

void ExpectSameBatches(const std::vector<core::Vec>& want,
                       const std::vector<core::Vec>& got,
                       const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].size(), got[i].size()) << what << "[" << i << "]";
    for (size_t j = 0; j < want[i].size(); ++j) {
      EXPECT_EQ(Bits(want[i][j]), Bits(got[i][j]))
          << what << "[" << i << "]: " << want[i][j] << " vs " << got[i][j];
    }
  }
}

std::vector<tpch::TpchQuery> AllCases() {
  std::vector<tpch::TpchQuery> cases = tpch::AllTpchQueries();
  for (tpch::TpchQuery& t : Templates()) cases.push_back(std::move(t));
  return cases;
}

// Every mapped value execute_phases hands the runner is bit-identical to
// the three-run path, for the TPC-H plans and the benchmark templates, on
// 1 and 4 threads, with and without domain records.
TEST(PlanQueryOnePassTest, PhasesMatchThreeRunPath) {
  const rel::Catalog catalog = Data().catalog();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    engine::ExecContext ctx(
        engine::ExecConfig{.threads = threads, .default_partitions = threads});
    auto executor = std::make_shared<const rel::PlanExecutor>(&ctx, &catalog);
    for (const tpch::TpchQuery& q : AllCases()) {
      core::QueryInstance instance =
          MakePlanQuery(&ctx, executor, &Data(), q);
      for (uint64_t seed : {3u, 4u}) {
        Rng rng = Rng::ForStream(seed, "plan_query_test/sample");
        const std::vector<size_t> sample = rng.SampleWithoutReplacement(
            instance.num_records, std::min<size_t>(instance.num_records, 60));
        for (size_t num_domain : {size_t{0}, size_t{25}}) {
          const std::string what = q.name + " threads=" +
                                   std::to_string(threads) + " seed=" +
                                   std::to_string(seed) + " domain=" +
                                   std::to_string(num_domain);
          core::MappedBatches want =
              ThreeRunPhases(*executor, q, sample, 2, num_domain, seed);
          core::MappedBatches got =
              instance.execute_phases(sample, 2, num_domain, seed);
          ExpectSameBatches(want.sprime_partials, got.sprime_partials,
                            what + " S'");
          ExpectSameBatches(want.sample_mapped, got.sample_mapped,
                            what + " sample");
          ExpectSameBatches(want.domain_mapped, got.domain_mapped,
                            what + " domain");
        }
      }
    }
  }
}

// A hinted release asks for no domain records, so MakePlanQuery runs the
// provenance pass alone — and still releases the unhinted run's bits.
TEST(PlanQueryOnePassTest, HintedReleaseSkipsDomainPassWithSameBits) {
  const rel::Catalog catalog = Data().catalog();
  engine::ExecContext ctx(
      engine::ExecConfig{.threads = 2, .default_partitions = 2});
  auto executor = std::make_shared<const rel::PlanExecutor>(&ctx, &catalog);
  core::UpaConfig cfg;
  cfg.sample_n = 200;

  for (const tpch::TpchQuery& q : Templates()) {
    core::QueryInstance instance = MakePlanQuery(&ctx, executor, &Data(), q);
    std::vector<size_t> domain_requests;
    auto inner = instance.execute_phases;
    instance.execute_phases = [inner, &domain_requests](
                                  std::span<const size_t> sample, size_t parts,
                                  size_t num_domain, uint64_t seed) {
      domain_requests.push_back(num_domain);
      return inner(sample, parts, num_domain, seed);
    };

    core::UpaRunner cold(cfg), warm(cfg);
    Result<core::UpaRunResult> full = cold.Run(instance, 21);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    core::SensitivityHint hint{full.value().local_sensitivity,
                               full.value().out_range,
                               full.value().degenerate_sensitivity};
    Result<core::UpaRunResult> hinted = warm.Run(instance, 21, &hint);
    ASSERT_TRUE(hinted.ok()) << hinted.status().ToString();

    EXPECT_EQ(domain_requests, (std::vector<size_t>{200, 0})) << q.name;
    EXPECT_EQ(Bits(full.value().released_output),
              Bits(hinted.value().released_output))
        << q.name;
    EXPECT_EQ(Bits(full.value().raw_output), Bits(hinted.value().raw_output))
        << q.name;
    ASSERT_EQ(full.value().partition_outputs.size(),
              hinted.value().partition_outputs.size());
    for (size_t j = 0; j < full.value().partition_outputs.size(); ++j) {
      EXPECT_EQ(Bits(full.value().partition_outputs[j]),
                Bits(hinted.value().partition_outputs[j]))
          << q.name << " partition " << j;
    }
  }
}

// The block cache lives and dies with one release: releasing the same join
// query with the same seed twice shows the same hit and miss counts both
// times. A cache that outlived the release would let the second release
// hit the first one's entries (and would grow for as long as the process
// serves releases).
TEST(PlanQueryOnePassTest, BlockCacheScopedToOneRelease) {
  const rel::Catalog catalog = Data().catalog();
  engine::ExecContext ctx(
      engine::ExecConfig{.threads = 2, .default_partitions = 2});
  auto executor = std::make_shared<const rel::PlanExecutor>(&ctx, &catalog);
  core::UpaConfig cfg;
  cfg.sample_n = 200;
  const tpch::TpchQuery join = Templates().back();
  core::QueryInstance instance = MakePlanQuery(&ctx, executor, &Data(), join);

  struct Delta {
    uint64_t hits = 0, misses = 0;
  };
  auto release = [&] {
    engine::MetricsSnapshot before = ctx.metrics().Snapshot();
    core::UpaRunner runner(cfg);
    EXPECT_TRUE(runner.Run(instance, 33).ok());
    engine::MetricsSnapshot delta = ctx.metrics().Snapshot() - before;
    return Delta{delta.cache_hits, delta.cache_misses};
  };
  const Delta first = release();
  const Delta second = release();
  EXPECT_EQ(first.hits, second.hits);
  EXPECT_EQ(first.misses, second.misses);
  // The domain pass reuses the provenance pass's public side of the join.
  EXPECT_GE(first.hits, 1u);
  EXPECT_GE(first.misses, 1u);
}

// Repeated releases of one query on unchanged data: after the first, every
// provenance pass is an S′ memo hit, and every release carries the bits of
// a release through an executor that has never seen the query.
TEST(PlanQueryMemoTest, RepeatedReleasesHitWithSameBits) {
  const rel::Catalog catalog = Data().catalog();
  core::UpaConfig cfg;
  cfg.sample_n = 200;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    engine::ExecContext ctx(
        engine::ExecConfig{.threads = threads, .default_partitions = threads});
    auto warm_exec = std::make_shared<const rel::PlanExecutor>(&ctx, &catalog);
    for (const tpch::TpchQuery& q : Templates()) {
      core::QueryInstance warm = MakePlanQuery(&ctx, warm_exec, &Data(), q);
      const uint64_t hits_before = ctx.metrics().Snapshot().memo_hits;
      for (uint64_t seed = 40; seed < 44; ++seed) {
        core::QueryInstance cold = MakePlanQuery(
            &ctx, std::make_shared<const rel::PlanExecutor>(&ctx, &catalog),
            &Data(), q);
        core::UpaRunner warm_runner(cfg), cold_runner(cfg);
        Result<core::UpaRunResult> got = warm_runner.Run(warm, seed);
        Result<core::UpaRunResult> want = cold_runner.Run(cold, seed);
        ASSERT_TRUE(got.ok() && want.ok()) << q.name;
        const std::string what =
            q.name + " threads=" + std::to_string(threads) +
            " seed=" + std::to_string(seed);
        EXPECT_EQ(Bits(want.value().released_output),
                  Bits(got.value().released_output))
            << what;
        EXPECT_EQ(Bits(want.value().raw_output), Bits(got.value().raw_output))
            << what;
        EXPECT_EQ(Bits(want.value().local_sensitivity),
                  Bits(got.value().local_sensitivity))
            << what;
        ASSERT_EQ(want.value().partition_outputs.size(),
                  got.value().partition_outputs.size());
        for (size_t j = 0; j < want.value().partition_outputs.size(); ++j) {
          EXPECT_EQ(Bits(want.value().partition_outputs[j]),
                    Bits(got.value().partition_outputs[j]))
              << what << " partition " << j;
        }
      }
      EXPECT_EQ(ctx.metrics().Snapshot().memo_hits - hits_before, 3u)
          << q.name;
    }
  }
}

}  // namespace
}  // namespace upa::queries
