// Shard process supervision: fork/exec of shard server binaries, liveness
// watching, and automatic respawn with bounded exponential backoff.
//
// The supervisor owns the *process* half of failover; the router owns the
// *connection* half. Contract between them: a shard is always respawned at
// the same address, so the router can keep redialing a fixed host:port
// while the supervisor cycles the process behind it. Durability is the
// shard's own job — a respawned upa_shard replays its journal dir before
// accepting traffic, so the router's first successful health probe implies
// bit-identical recovered state.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/backoff.h"
#include "common/status.h"

namespace upa::cluster {

/// Binds an ephemeral TCP port, reads it back and releases it. Best-effort
/// (another process may grab the port before the caller binds it), which is
/// fine for tests/benches that retry on startup failure.
Result<uint16_t> PickFreePort();

struct ShardProcessSpec {
  /// Absolute path of the shard binary (argv[0]).
  std::string binary;
  /// Remaining argv entries.
  std::vector<std::string> args;
  /// Extra "KEY=VALUE" environment entries for the child (appended to the
  /// parent environment; used to plant UPA_FAILPOINTS).
  std::vector<std::string> env;
};

class ShardSupervisor {
 public:
  struct Options {
    /// Respawn delay after the first death; doubles per consecutive death
    /// (see JitteredBackoff).
    double backoff_initial_ms = 50.0;
    /// Upper bound for the respawn delay.
    double backoff_max_ms = 2000.0;
    /// Seeds the respawn jitter, so shards felled by one correlated
    /// failure (OOM sweep, machine reboot) do not replay their journals
    /// and re-register in lockstep.
    uint64_t backoff_jitter_seed = 0x73757065722d6a69ULL;
    /// Respawn dead shards automatically. Off = launch-only supervision
    /// (the chaos tests restart explicitly to control timing).
    bool auto_restart = true;
  };

  ShardSupervisor();  // default Options
  explicit ShardSupervisor(Options options);
  ~ShardSupervisor();  // StopAll()

  ShardSupervisor(const ShardSupervisor&) = delete;
  ShardSupervisor& operator=(const ShardSupervisor&) = delete;

  /// fork/execs `spec` and watches it. Returns the shard's slot index.
  Result<size_t> Launch(ShardProcessSpec spec);

  /// Current pid (-1 while dead/awaiting respawn).
  pid_t PidOf(size_t index) const;
  bool Alive(size_t index) const;
  /// Times the shard has been respawned after dying.
  uint64_t Restarts(size_t index) const;

  /// Sends `signum` (default SIGKILL) to the shard process. With
  /// auto_restart the monitor respawns it after the backoff.
  Status Kill(size_t index, int signum);

  /// Respawns a dead shard immediately (chaos tests drive restarts by
  /// hand when auto_restart is off).
  Status Respawn(size_t index);

  /// SIGTERM every shard, grace-wait, SIGKILL stragglers, reap all.
  /// Disables respawn. Idempotent.
  void StopAll();

 private:
  struct Slot {
    ShardProcessSpec spec;
    pid_t pid = -1;
    uint64_t restarts = 0;
    double backoff_ms = 0.0;
    int64_t spawned_at_ns = 0;
    int64_t respawn_at_ns = 0;  // 0 = not scheduled
  };

  void MonitorLoop();
  static Result<pid_t> Spawn(const ShardProcessSpec& spec);

  Options options_;
  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  bool stopping_ = false;
  JitteredBackoff backoff_;  // mu_ held
  std::thread monitor_;
};

}  // namespace upa::cluster
