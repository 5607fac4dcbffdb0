// One cluster shard: a stock UpaService + net::Server with its own journal
// directory, spoken to by the cluster router (src/cluster/router.h). The
// query language is the toy wire-SQL the net tests use, which keeps shard
// behaviour deterministic for the differential and chaos suites:
//
//   count:<n>           COUNT over n synthetic records
//   lat:<n>:<us>        the same, but the post step sleeps <us> microseconds
//                       — a stand-in for shard-local work that is latency-
//                       rather than CPU-bound (bench_cluster_throughput
//                       drives these to measure cluster scaling on small
//                       machines without the shards fighting for cores)
//
// Usage:
//   upa_shard [--port N] [--port-file PATH] [--journal-dir DIR]
//             [--shard-name NAME] [--threads N] [--max-in-flight N]
//             [--sample-n N] [--budget EPS]
//
// Prints "READY <port>" on stdout once listening (after journal replay),
// then serves until SIGTERM/SIGINT. UPA_FAILPOINTS is honoured via the
// environment, which is how the chaos tests make a shard crash at a chosen
// journal boundary.
#include <signal.h>

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "net/server.h"
#include "service/service.h"
#include "upa/simple_query.h"

using namespace upa;

namespace {

engine::ExecContext* g_ctx = nullptr;

core::QueryInstance ToyQuery(size_t n, int64_t post_sleep_us,
                             const std::string& name) {
  core::SimpleQuerySpec<int> spec;
  spec.name = name;
  spec.ctx = g_ctx;
  auto records = std::make_shared<std::vector<int>>(n, 0);
  std::iota(records->begin(), records->end(), 0);
  spec.records = records;
  spec.map_record = [](const int&) { return core::Vec{1.0}; };
  spec.sample_domain = [](Rng& rng) {
    return static_cast<int>(rng.UniformU64(1000000));
  };
  core::QueryInstance q = core::MakeSimpleQuery(std::move(spec));
  if (post_sleep_us > 0) {
    // Exactly one sleep per query: wrap the (once-per-release) phase
    // runner, not map/post, which run per record / per neighbour.
    auto inner = std::move(q.execute_phases);
    q.execute_phases = [inner, post_sleep_us](
                           std::span<const size_t> sample_indices,
                           size_t num_partitions, size_t num_domain,
                           uint64_t seed) {
      std::this_thread::sleep_for(std::chrono::microseconds(post_sleep_us));
      return inner(sample_indices, num_partitions, num_domain, seed);
    };
  }
  return q;
}

/// Parses all of `field` as a base-10 number; false on anything else
/// (empty, trailing bytes, out of range).
template <typename T>
bool ParseWhole(std::string_view field, T* out) {
  const char* end = field.data() + field.size();
  auto [ptr, ec] = std::from_chars(field.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

net::QueryCompiler ToyCompiler() {
  return [](const net::WireQuery& wire) -> Result<core::QueryInstance> {
    const std::string_view sql = wire.sql;
    if (sql.starts_with("count:")) {
      size_t n = 0;
      if (!ParseWhole(sql.substr(6), &n)) {
        return Status::InvalidArgument("count:<n> expected: " + wire.sql);
      }
      return ToyQuery(n, 0, wire.sql);
    }
    if (sql.starts_with("lat:")) {
      const std::string_view rest = sql.substr(4);
      const size_t colon = rest.find(':');
      size_t n = 0;
      int64_t us = 0;
      if (colon == std::string_view::npos ||
          !ParseWhole(rest.substr(0, colon), &n) ||
          !ParseWhole(rest.substr(colon + 1), &us)) {
        return Status::InvalidArgument("lat:<n>:<us> expected: " + wire.sql);
      }
      return ToyQuery(n, us, wire.sql);
    }
    return Status::InvalidArgument("unknown toy SQL: " + wire.sql);
  };
}

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 0;
  std::string port_file;
  service::ServiceConfig svc_cfg;
  svc_cfg.upa.sample_n = 32;  // small, deterministic; overridable
  svc_cfg.budget_per_dataset = 1e9;  // chaos/bench runs pick their own
  size_t threads = 2;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      port = static_cast<uint16_t>(std::atoi(next()));
    } else if (arg == "--port-file") {
      port_file = next();
    } else if (arg == "--journal-dir") {
      svc_cfg.journal_dir = next();
    } else if (arg == "--shard-name") {
      svc_cfg.shard_name = next();
    } else if (arg == "--threads") {
      threads = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--max-in-flight") {
      svc_cfg.max_in_flight = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--sample-n") {
      svc_cfg.upa.sample_n = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--budget") {
      svc_cfg.budget_per_dataset = std::atof(next());
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  // Block the shutdown signals BEFORE any thread spawns so every thread
  // inherits the mask and sigwait below is race-free.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  engine::ExecContext ctx(engine::ExecConfig{
      .threads = threads, .default_partitions = threads});
  g_ctx = &ctx;

  // Construction replays the journal: by the time the server is listening
  // (and can answer the router's health probe), the registry/ledger/epoch
  // state is the recovered one.
  service::UpaService service(&ctx, svc_cfg);

  net::ServerConfig net_cfg;
  net_cfg.port = port;
  net::Server server(&service, ToyCompiler(), net_cfg);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }

  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "%u\n", server.port());
      std::fclose(f);
    }
  }
  std::printf("READY %u\n", server.port());
  std::fflush(stdout);

  int sig = 0;
  sigwait(&sigs, &sig);
  server.Stop();
  return 0;
}
