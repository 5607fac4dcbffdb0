// The system under test, built in-process: TPC-H data, and either one
// net::Server → service::UpaService shard, or a cluster::Router in front
// of two such shards. Also the benchmark's SQL compiler, which is where
// the traced run records its compile and execute_phases spans.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "engine/context.h"
#include "net/server.h"
#include "relational/executor.h"
#include "service/service.h"
#include "tpch/generator.h"
#include "workload.h"

namespace upa::releasebench {

/// WireQuery → QueryInstance, as upa_server compiles it, except that the
/// dataset id is an alias (`lineitem@7` names the private table
/// `lineitem`). With a non-null `table`, requests marked `traced` get
/// their compile boundaries and an execute_phases wrapper timed into
/// `table->spans`.
net::QueryCompiler MakeCompiler(engine::ExecContext* ctx,
                                std::shared_ptr<const rel::PlanExecutor> executor,
                                const tpch::TpchDataset* data,
                                const rel::Catalog* catalog,
                                const RequestTable* table);

/// The service configuration every shard (and the replay check) uses.
service::ServiceConfig MakeServiceConfig(size_t threads,
                                         const std::string& journal_dir);

struct Shard {
  std::unique_ptr<engine::ExecContext> ctx;
  std::shared_ptr<const rel::PlanExecutor> executor;
  std::unique_ptr<service::UpaService> service;
  std::unique_ptr<net::Server> server;
  std::string journal_dir;
};

class Stack {
 public:
  /// Generates the data and builds the shards; journals go to fresh
  /// directories under `dir`. Start() opens the sockets.
  Stack(size_t orders, bool routed, const RequestTable* table,
        const std::string& dir);

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Starts the servers (and the router, waiting until both shards are
  /// healthy).
  Status Start();
  /// The port clients connect to.
  uint16_t port() const;

  const tpch::TpchDataset& data() const { return data_; }
  const rel::Catalog& catalog() const { return catalog_; }
  const std::vector<std::unique_ptr<Shard>>& shards() const {
    return shards_;
  }
  const cluster::Router* router() const { return router_.get(); }

 private:
  tpch::TpchDataset data_;
  rel::Catalog catalog_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<cluster::Router> router_;
};

}  // namespace upa::releasebench
