#include "cluster/shard_process.h"

#include <errno.h>
#include <signal.h>
#include <stdlib.h>
#include <string.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <utility>

#include "common/timer.h"
#include "net/conn.h"

namespace upa::cluster {
namespace {

/// A shard alive this long is considered stable: its backoff resets.
constexpr double kStableAfterMs = 5000.0;
/// Liveness poll period of the monitor thread.
constexpr double kPollIntervalMs = 20.0;

}  // namespace

Result<uint16_t> PickFreePort() {
  Result<net::ListenSocket> probe = net::Listen("127.0.0.1", 0);
  UPA_RETURN_IF_ERROR(probe.status());
  ::close(probe.value().fd);
  return probe.value().port;
}

ShardSupervisor::ShardSupervisor() : ShardSupervisor(Options()) {}

ShardSupervisor::ShardSupervisor(Options options)
    : options_(std::move(options)),
      backoff_(options_.backoff_initial_ms, options_.backoff_max_ms,
               options_.backoff_jitter_seed) {
  monitor_ = std::thread([this] { MonitorLoop(); });
}

ShardSupervisor::~ShardSupervisor() {
  StopAll();
  if (monitor_.joinable()) monitor_.join();
}

Result<pid_t> ShardSupervisor::Spawn(const ShardProcessSpec& spec) {
  pid_t pid = ::fork();
  if (pid < 0) {
    return Status::Internal(std::string("fork: ") + ::strerror(errno));
  }
  if (pid == 0) {
    // Child. Plant the extra environment, then exec. Only async-signal-safe
    // work between fork and exec (setenv allocates, but the child is
    // single-threaded here — the fork snapshot of a multithreaded parent is
    // the reason to keep this block minimal).
    for (const std::string& kv : spec.env) {
      size_t eq = kv.find('=');
      if (eq == std::string::npos) continue;
      ::setenv(kv.substr(0, eq).c_str(), kv.c_str() + eq + 1, 1);
    }
    std::vector<char*> argv;
    argv.reserve(spec.args.size() + 2);
    argv.push_back(const_cast<char*>(spec.binary.c_str()));
    for (const std::string& arg : spec.args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(spec.binary.c_str(), argv.data());
    ::_exit(127);  // exec failed; the monitor sees a fast death
  }
  return pid;
}

Result<size_t> ShardSupervisor::Launch(ShardProcessSpec spec) {
  std::lock_guard lock(mu_);
  if (stopping_) return Status::FailedPrecondition("supervisor stopped");
  Result<pid_t> pid_or = Spawn(spec);
  UPA_RETURN_IF_ERROR(pid_or.status());
  Slot slot;
  slot.spec = std::move(spec);
  slot.pid = pid_or.value();
  slot.backoff_ms = backoff_.initial_ms();
  slot.spawned_at_ns = NowNanos();
  slots_.push_back(std::move(slot));
  return slots_.size() - 1;
}

pid_t ShardSupervisor::PidOf(size_t index) const {
  std::lock_guard lock(mu_);
  return index < slots_.size() ? slots_[index].pid : -1;
}

bool ShardSupervisor::Alive(size_t index) const { return PidOf(index) > 0; }

uint64_t ShardSupervisor::Restarts(size_t index) const {
  std::lock_guard lock(mu_);
  return index < slots_.size() ? slots_[index].restarts : 0;
}

Status ShardSupervisor::Kill(size_t index, int signum) {
  std::lock_guard lock(mu_);
  if (index >= slots_.size()) return Status::InvalidArgument("no such shard");
  if (slots_[index].pid <= 0) {
    return Status::FailedPrecondition("shard is not running");
  }
  if (::kill(slots_[index].pid, signum) != 0) {
    return Status::Internal(std::string("kill: ") + ::strerror(errno));
  }
  return Status::Ok();
}

Status ShardSupervisor::Respawn(size_t index) {
  std::lock_guard lock(mu_);
  if (stopping_) return Status::FailedPrecondition("supervisor stopped");
  if (index >= slots_.size()) return Status::InvalidArgument("no such shard");
  Slot& slot = slots_[index];
  if (slot.pid > 0) return Status::FailedPrecondition("shard still running");
  Result<pid_t> pid_or = Spawn(slot.spec);
  UPA_RETURN_IF_ERROR(pid_or.status());
  slot.pid = pid_or.value();
  slot.spawned_at_ns = NowNanos();
  slot.respawn_at_ns = 0;
  ++slot.restarts;
  return Status::Ok();
}

void ShardSupervisor::MonitorLoop() {
  for (;;) {
    {
      std::lock_guard lock(mu_);
      if (stopping_) return;
      const int64_t now = NowNanos();
      for (Slot& slot : slots_) {
        if (slot.pid > 0) {
          int status = 0;
          pid_t reaped = ::waitpid(slot.pid, &status, WNOHANG);
          if (reaped == slot.pid) {
            // Death detected. A shard that ran long enough to be "stable"
            // restarts from the initial backoff; a crash loop doubles the
            // delay up to the bound, so a broken binary cannot busy-spin
            // the supervisor.
            const double uptime_ms =
                static_cast<double>(now - slot.spawned_at_ns) / 1e6;
            if (uptime_ms >= kStableAfterMs) {
              slot.backoff_ms = backoff_.initial_ms();
            }
            slot.pid = -1;
            if (options_.auto_restart) {
              slot.respawn_at_ns =
                  now +
                  static_cast<int64_t>(backoff_.Next(&slot.backoff_ms) * 1e6);
            }
          }
        } else if (slot.respawn_at_ns != 0 && now >= slot.respawn_at_ns) {
          Result<pid_t> pid_or = Spawn(slot.spec);
          if (pid_or.ok()) {
            slot.pid = pid_or.value();
            slot.spawned_at_ns = now;
            slot.respawn_at_ns = 0;
            ++slot.restarts;
          } else {
            // Spawn itself failed (fork pressure): retry after backoff.
            slot.respawn_at_ns =
                now +
                static_cast<int64_t>(backoff_.Next(&slot.backoff_ms) * 1e6);
          }
        }
      }
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(kPollIntervalMs));
  }
}

void ShardSupervisor::StopAll() {
  std::vector<pid_t> pids;
  {
    std::lock_guard lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    for (Slot& slot : slots_) {
      if (slot.pid > 0) pids.push_back(slot.pid);
      slot.respawn_at_ns = 0;
    }
  }
  for (pid_t pid : pids) ::kill(pid, SIGTERM);
  // Grace period, then escalate. The shards are journaled: SIGKILL loses
  // nothing that was acknowledged.
  const int64_t deadline_ns = NowNanos() + 2'000'000'000;
  for (pid_t pid : pids) {
    for (;;) {
      int status = 0;
      pid_t reaped = ::waitpid(pid, &status, WNOHANG);
      if (reaped == pid || (reaped < 0 && errno == ECHILD)) break;
      if (NowNanos() >= deadline_ns) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  {
    std::lock_guard lock(mu_);
    for (Slot& slot : slots_) slot.pid = -1;
  }
}

}  // namespace upa::cluster
