// MakePlanQuery's release passes: the one provenance pass, plus the domain
// pass (a one pass too) on unhinted releases only, checked against plain
// runs over each record set; hinted and unhinted releases through
// UpaRunner; the block cache's scope of exactly one release; repeated
// releases answered from the executor's S′ memo; and a cancelled pass that
// must never fill it. The suite names are in CI's TSan filter.
#include "queries/plan_query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "relational/columnar.h"
#include "relational/plan.h"
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

/// The reference the passes are anchored to: plain row-oracle runs of the
/// unoptimized plan over exactly each record set — partition j's unsampled
/// records for S'_j, {s_k} for sampled record k, and {i} of the synthetic
/// rows for domain record i.
core::MappedBatches ReferencePhases(const rel::PlanExecutor& exec,
                                    const tpch::TpchQuery& q,
                                    std::span<const size_t> sample_indices,
                                    size_t num_partitions, size_t num_domain,
                                    uint64_t seed) {
  Rng rng = Rng::ForStream(seed, "upa/domain/" + q.name);
  std::vector<rel::Row> synthetic;
  for (size_t i = 0; i < num_domain; ++i) {
    synthetic.push_back(Data().SampleRow(q.private_table, rng));
  }
  // The row oracle reads these rows back out of their columns.
  const std::shared_ptr<const rel::ColumnarTable> synthetic_table =
      rel::ColumnarTable::Build(Data().table(q.private_table).schema(),
                                synthetic);
  engine::BlockCache cache(nullptr);
  auto output_over = [&](const std::vector<size_t>& rows,
                         const rel::ColumnarTable* replace) {
    rel::ExecOptions opts;
    opts.engine = rel::ExecEngine::kRowOracle;
    opts.private_table = q.private_table;
    opts.replace_private_rows = replace;
    opts.include_rows = &rows;
    opts.cache = &cache;
    Result<rel::ExecResult> r = exec.Execute(q.plan, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value().output : 0.0;
  };

  core::MappedBatches out;
  const size_t n = Data().table(q.private_table).NumRows();
  std::vector<std::vector<size_t>> unsampled(num_partitions);
  for (size_t i = 0; i < n; ++i) {
    if (!std::binary_search(sample_indices.begin(), sample_indices.end(), i)) {
      unsampled[i % num_partitions].push_back(i);
    }
  }
  for (const std::vector<size_t>& rows : unsampled) {
    out.sprime_partials.values.push_back(output_over(rows, nullptr));
  }
  for (size_t idx : sample_indices) {
    out.sample_mapped.values.push_back(output_over({idx}, nullptr));
  }
  for (size_t i = 0; i < num_domain; ++i) {
    out.domain_mapped.values.push_back(
        output_over({i}, synthetic_table.get()));
  }
  return out;
}

/// Both batches hold the same rows, bit for bit (every plan query's rows
/// are one value each, none of them the identity).
void ExpectSameBatches(const core::VecRows& want, const core::VecRows& got,
                       const std::string& what) {
  ASSERT_EQ(want.values.size(), got.values.size()) << what;
  EXPECT_EQ(want.identity, got.identity) << what;
  for (size_t i = 0; i < want.values.size(); ++i) {
    EXPECT_EQ(Bits(want.values[i]), Bits(got.values[i]))
        << what << "[" << i << "]: " << want.values[i] << " vs "
        << got.values[i];
  }
}

std::vector<tpch::TpchQuery> AllCases() {
  std::vector<tpch::TpchQuery> cases = tpch::AllTpchQueries();
  for (tpch::TpchQuery& t : Templates()) cases.push_back(std::move(t));
  return cases;
}

// Every mapped value execute_phases hands the runner is bit-identical to
// plain runs over each record set, for the TPC-H plans and the benchmark
// templates, on 1 and 4 threads, with and without domain records.
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
              ReferencePhases(*executor, q, sample, 2, num_domain, seed);
          core::MappedBatches got =
              instance.execute_phases(sample, 2, num_domain, seed);
          ASSERT_TRUE(got.status.ok()) << what << ": " << got.status.ToString();
          EXPECT_EQ(got.dim, 1u) << what;
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

// A query a pass cannot run (an unknown filter column, SUM column or join
// key) fails its release with the pass's INVALID_ARGUMENT instead of
// aborting the process, registers nothing, and the next release on the
// same runner and executor goes through. So does a private table with no
// record domain to draw the domain pass from (UNSUPPORTED).
TEST(PlanQueryPassErrorTest, AFailedPassFailsTheReleaseNotTheProcess) {
  const rel::Catalog catalog = Data().catalog();
  engine::ExecContext ctx(
      engine::ExecConfig{.threads = 2, .default_partitions = 2});
  auto executor = std::make_shared<const rel::PlanExecutor>(&ctx, &catalog);
  core::UpaConfig config;
  config.add_noise = false;
  core::UpaRunner runner(config);
  auto instance = [&](const char* sql, const char* private_table) {
    Result<rel::PlanPtr> parsed = rel::ParseSql(sql);
    EXPECT_TRUE(parsed.ok()) << sql;
    tpch::TpchQuery query;
    query.name = sql;
    query.plan = parsed.ok() ? parsed.value() : nullptr;
    query.private_table = private_table;
    return MakePlanQuery(&ctx, executor, &Data(), query);
  };
  struct Case {
    const char* sql;
    const char* private_table;
    StatusCode code;
  };
  for (const Case& c : {
           Case{"SELECT COUNT(*) FROM lineitem WHERE no_such_col > 1",
                "lineitem", StatusCode::kInvalidArgument},
           Case{"SELECT SUM(no_such_col) FROM lineitem", "lineitem",
                StatusCode::kInvalidArgument},
           Case{"SELECT COUNT(*) FROM lineitem JOIN orders ON "
                "l_orderkey = o_nokey",
                "lineitem", StatusCode::kInvalidArgument},
           Case{"SELECT COUNT(*) FROM nation", "nation",
                StatusCode::kUnsupported},
       }) {
    Result<core::UpaRunResult> r =
        runner.Run(instance(c.sql, c.private_table), 1);
    ASSERT_FALSE(r.ok()) << c.sql;
    EXPECT_EQ(r.status().code(), c.code)
        << c.sql << ": " << r.status().ToString();
    EXPECT_EQ(runner.enforcer().registry_size(), 0u) << c.sql;
  }
  for (const tpch::TpchQuery& q : Templates()) {
    Result<core::UpaRunResult> r =
        runner.Run(MakePlanQuery(&ctx, executor, &Data(), q), 2);
    ASSERT_TRUE(r.ok()) << q.name << ": " << r.status().ToString();
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

// A one pass whose deadline expires mid-run fails and leaves the S′ memo
// empty, so the next pass of the plan on the same executor carries the bits
// of an executor that never saw it. The join scans lineitem last, and its
// columnar form is rebuilt behind a delay: the deadline passes after the
// interpreted path's last node-entry check, and only the check after its
// last morsel run can see it.
TEST(PlanQueryMemoTest, CancelledPassNeverFillsTheMemo) {
  const rel::Catalog catalog = Data().catalog();
  engine::ExecContext ctx(
      engine::ExecConfig{.threads = 2, .default_partitions = 2});
  const rel::PlanPtr join = rel::CountPlan(
      rel::JoinPlan(rel::ScanPlan("orders"), rel::ScanPlan("lineitem"),
                    "o_orderkey", "l_orderkey"));
  (void)Data().orders().Columnar();
  (void)Data().lineitem().Columnar();
  Data().lineitem().ReleaseCaches();
  Rng rng = Rng::ForStream(9, "plan_query_test/cancelled");
  const std::vector<size_t> sample =
      rng.SampleWithoutReplacement(Data().lineitem().NumRows(), 100);
  rel::ExecOptions opts;
  opts.private_table = "lineitem";
  opts.sample_rows = &sample;
  opts.partitions = 2;

  const rel::PlanExecutor exec(&ctx, &catalog);
  {
    ASSERT_TRUE(
        Failpoints::Instance().Activate("columnar/build", "delay(200)").ok());
    CancelToken token;
    token.SetDeadlineAfterMillis(50);
    CancelScope scope(&token);
    Result<rel::ExecResult> r = exec.Execute(join, opts);
    Failpoints::Instance().Deactivate("columnar/build");
    ASSERT_FALSE(r.ok()) << "output " << r.value().output;
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_EQ(exec.MemoEntries(), 0u);

  // Every output bit: the total, the row count, S' and the sample's slots.
  auto bits = [](const rel::ExecResult& r) {
    std::vector<uint64_t> out = {Bits(r.output), r.result_rows};
    for (double d : r.partition_outputs) out.push_back(Bits(d));
    for (double d : r.sample_contributions) out.push_back(Bits(d));
    return out;
  };
  Result<rel::ExecResult> got = exec.Execute(join, opts);
  Result<rel::ExecResult> want =
      rel::PlanExecutor(&ctx, &catalog).Execute(join, opts);
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_EQ(bits(want.value()), bits(got.value()));
  EXPECT_EQ(exec.MemoEntries(), 1u);
}

}  // namespace
}  // namespace upa::queries
