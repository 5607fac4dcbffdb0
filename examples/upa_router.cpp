// Cluster front door: routes UPA wire-protocol clients across N shard
// servers by consistent-hashing the dataset id. Start the shards first
// (examples/upa_shard or any upa_server), then:
//
//   upa_router <listen-port> <host:port> [<host:port> ...]
//
// Prints "READY <port>" once listening, then serves until SIGTERM/SIGINT,
// and prints its stats on the way out. Its client side is the same
// net::Server a shard runs, so clients connect to the router exactly as
// they would to a single server:
//
//   upa_client <router-port> "count:1000" some_dataset
//
// scripts/run_cluster.sh wires the full demo: 2 shards + router + client
// load + a mid-run shard SIGKILL to show failover and journal recovery.
#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/router.h"

using namespace upa;

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: upa_router <listen-port> <host:port> [...]\n");
    return 2;
  }

  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  cluster::RouterConfig cfg;
  cfg.port = static_cast<uint16_t>(std::atoi(argv[1]));
  std::vector<cluster::ShardAddress> shards;
  for (int i = 2; i < argc; ++i) {
    const std::string spec = argv[i];
    const size_t colon = spec.rfind(':');
    cluster::ShardAddress addr;
    if (colon == std::string::npos) {
      addr.port = static_cast<uint16_t>(std::atoi(spec.c_str()));
    } else {
      addr.host = spec.substr(0, colon);
      addr.port = static_cast<uint16_t>(std::atoi(spec.c_str() + colon + 1));
    }
    shards.push_back(addr);
  }

  cluster::Router router(std::move(shards), cfg);
  Status started = router.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("READY %u\n", router.port());
  std::fflush(stdout);

  int sig = 0;
  sigwait(&sigs, &sig);
  router.Stop();
  // What a stats request got last: the router's block, then its door's.
  std::printf("%s%s", router.StatsText().c_str(),
              router.server().StatsText().c_str());
  return 0;
}
