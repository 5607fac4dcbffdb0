#include "stack.h"

#include <chrono>
#include <filesystem>
#include <thread>

#include "queries/plan_query.h"
#include "relational/optimizer.h"
#include "relational/sql_parser.h"

namespace upa::releasebench {

namespace {

void Stamp(std::atomic<int64_t>& slot) {
  slot.store(NowNs(), std::memory_order_relaxed);
}

}  // namespace

net::QueryCompiler MakeCompiler(
    engine::ExecContext* ctx, std::shared_ptr<const rel::PlanExecutor> executor,
    const tpch::TpchDataset* data, const rel::Catalog* catalog,
    const RequestTable* table) {
  return [ctx, executor, data, catalog, table](
             const net::WireQuery& wire) -> Result<core::QueryInstance> {
    ServerSpan* span = nullptr;
    if (table != nullptr) {
      int64_t index = table->IndexOf(wire.seed);
      if (index >= 0 && table->requests[index].traced) {
        span = &table->spans[index];
        Stamp(span->compile_entry);
      }
    }
    std::string private_table =
        wire.dataset_id.substr(0, wire.dataset_id.find('@'));
    Result<rel::PlanPtr> parsed = rel::ParseSql(wire.sql);
    if (!parsed.ok()) return parsed.status();
    if (span != nullptr) Stamp(span->parsed);

    rel::OptimizerOptions opt;
    opt.private_table = private_table;
    rel::PlanPtr plan = rel::Optimize(parsed.value(), *catalog, opt);
    if (span != nullptr) Stamp(span->optimized);

    tpch::TpchQuery query;
    query.name = wire.sql;
    query.plan = std::move(plan);
    query.private_table = private_table;
    core::QueryInstance instance = queries::MakePlanQuery(
        ctx, executor, data, query, nullptr, /*optimize=*/false);
    if (span != nullptr) {
      instance.execute_phases =
          [inner = std::move(instance.execute_phases), span](
              std::span<const size_t> sample, size_t partitions,
              size_t domain, uint64_t seed) {
            Stamp(span->map_entry);
            core::MappedBatches out = inner(sample, partitions, domain, seed);
            Stamp(span->map_exit);
            return out;
          };
      Stamp(span->compiled);
    }
    return instance;
  };
}

service::ServiceConfig MakeServiceConfig(size_t threads,
                                         const std::string& journal_dir) {
  service::ServiceConfig config;
  // No request may be refused for budget or backlog: the benchmark
  // measures releases, and an open loop must be allowed to queue.
  config.budget_per_dataset = 1e9;
  config.max_in_flight = threads;
  config.max_queue_per_tenant = 1u << 16;
  config.journal_dir = journal_dir;
  config.journal_fsync = true;
  return config;
}

Stack::Stack(size_t orders, bool routed, const RequestTable* table,
             const std::string& dir)
    : data_(tpch::TpchConfig{.num_orders = orders}),
      catalog_(data_.catalog()) {
  const size_t num_shards = routed ? 2 : 1;
  const size_t threads = routed ? 2 : 4;
  for (size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->journal_dir = dir + "/shard" + std::to_string(i);
    std::filesystem::create_directories(shard->journal_dir);
    shard->ctx = std::make_unique<engine::ExecContext>(
        engine::ExecConfig{.threads = threads, .default_partitions = 4});
    shard->executor =
        std::make_shared<const rel::PlanExecutor>(shard->ctx.get(), &catalog_);
    shard->service = std::make_unique<service::UpaService>(
        shard->ctx.get(), MakeServiceConfig(threads, shard->journal_dir));
    net::ServerConfig net_config;
    net_config.max_pipelined_per_connection = 1u << 16;
    shard->server = std::make_unique<net::Server>(
        shard->service.get(),
        MakeCompiler(shard->ctx.get(), shard->executor, &data_, &catalog_,
                     table),
        net_config);
    shards_.push_back(std::move(shard));
  }
}

Status Stack::Start() {
  std::vector<cluster::ShardAddress> addrs;
  for (auto& shard : shards_) {
    UPA_RETURN_IF_ERROR(shard->server->Start());
    addrs.push_back(cluster::ShardAddress{"127.0.0.1", shard->server->port()});
  }
  if (shards_.size() == 1) return Status::Ok();
  // No idle health probes: a probe's StatsReport takes the service's
  // dataset lock, then a registry lock, while a release that holds its
  // registry lock can help-run another request that takes the dataset lock
  // (a lock-order inversion that hung a routed run under ThreadSanitizer).
  // The connect-time probe still runs, before any release.
  cluster::RouterConfig config;
  config.health_probe_interval_ms = 0;
  router_ = std::make_unique<cluster::Router>(std::move(addrs), config);
  UPA_RETURN_IF_ERROR(router_->Start());
  for (int waited_ms = 0; waited_ms < 10000; ++waited_ms) {
    bool healthy = true;
    for (size_t i = 0; i < shards_.size(); ++i) {
      healthy = healthy && router_->ShardHealthy(i);
    }
    if (healthy) return Status::Ok();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Status::Unavailable("router shards did not become healthy");
}

uint16_t Stack::port() const {
  return router_ != nullptr ? router_->port() : shards_[0]->server->port();
}

}  // namespace upa::releasebench
