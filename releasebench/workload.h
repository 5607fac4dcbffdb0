// Workload model of the release benchmark: query shapes, dataset aliases,
// and the per-request table every other part of the benchmark reads and
// writes.
//
// A *shape* is one literal-parameterised SQL aggregate (a filtered COUNT, a
// SUM over a ship-date window, or a COUNT over orders ⋈ lineitem). An
// *alias* such as `lineitem@7` names the private table `lineitem` to the
// benchmark's compiler, while the service treats every alias as its own
// privacy unit (registry, budget, sensitivity cache and journal).
//
// Everything here derives only from the workload seed: the same seed gives
// the same shapes, aliases, request seeds and arrival schedule.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/wire.h"

namespace upa::releasebench {

/// Number of connections (and tenants) the generator drives.
inline constexpr size_t kConnections = 4;
/// Warm shapes per alias: fits the service's 64-entry sensitivity LRU.
inline constexpr size_t kWarmShapesPerAlias = 48;
/// Measured releases of one (shape, alias) pair after its pre-warm release.
/// Each repeat makes the enforcer remove more records (a few per prior
/// release of the shape): the 4th release of a count shape removed up to 48
/// records, so 1 + 2 releases keep every release well below the 64-record
/// removal cap.
inline constexpr size_t kRepeatsPerShape = 2;
/// Requests one alias serves before the stream rotates to a fresh alias
/// (keeps every alias's enforcer registry bounded).
inline constexpr size_t kRequestsPerAlias =
    kWarmShapesPerAlias * kRepeatsPerShape;
/// Privacy budget spent by each release.
inline constexpr double kEpsilon = 0.1;

struct WorkloadSpec {
  std::string name;
  /// Open-loop offered rate (1/s): an eighth to a quarter of the workload's
  /// closed-loop peak on an unloaded 4-vCPU machine, so that a machine
  /// that loses a core to its neighbours does not saturate the open loop.
  double offered_qps = 0.0;
  /// Closed-loop request pool per closed-loop second (1/s). It bounds how
  /// many aliases set-up pre-warms; the phase ends early if the pool runs
  /// dry.
  double closed_cap_qps = 0.0;
  /// All connections target one alias at a time (else one alias each).
  bool shared_alias = false;
  /// Every request is a never-seen literal combination.
  bool cold = false;
  /// Through a cluster::Router in front of two shard servers.
  bool routed = false;
};

/// The workloads, by name; null when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);

struct Shape {
  int kind = 0;  // 0 filtered count, 1 sum over a window, 2 join count
  std::string sql;
};

/// Timestamps (steady-clock ns) recorded by the benchmark's compiler
/// callback and execute_phases wrapper. Written on server threads, read by
/// the main thread after the phase, hence relaxed atomics.
struct ServerSpan {
  std::atomic<int64_t> compile_entry{0};
  std::atomic<int64_t> parsed{0};
  std::atomic<int64_t> optimized{0};
  std::atomic<int64_t> compiled{0};
  std::atomic<int64_t> map_entry{0};
  std::atomic<int64_t> map_exit{0};
};

enum class Phase : uint8_t { kPrewarm, kOpen, kClosed };

struct Request {
  uint32_t shape = 0;
  uint32_t alias = 0;
  uint32_t conn = 0;
  Phase phase = Phase::kOpen;
  /// Record server-side spans for this request (traced runs only).
  bool traced = false;
  uint64_t seed = 0;
  /// Open loop: due time, relative to the start of the open-loop schedule.
  int64_t due_ns = 0;
  /// Open loop: absolute steady-clock due time, set when its round starts.
  int64_t due_at_ns = 0;
  // Written by the generator (main thread).
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  bool answered = false;
  net::WireResult result;
};

/// All requests of one run plus the shapes and aliases they name.
/// `seed` of request i is `seed_base + i`, so server-side callbacks map a
/// decoded WireQuery back to its row.
struct RequestTable {
  std::vector<Shape> shapes;
  std::vector<std::string> aliases;
  std::vector<Request> requests;
  std::unique_ptr<ServerSpan[]> spans;
  uint64_t seed_base = 0;

  /// Row index of a decoded query's seed; -1 when it is not ours.
  int64_t IndexOf(uint64_t seed) const;
  net::WireQuery WireFor(size_t index) const;
};

struct ScheduleParams {
  uint64_t seed = 1;
  double open_seconds = 5.0;
  /// Closed-loop request pool size (the phase stops early if it runs dry).
  size_t closed_pool = 1000;
  /// Trace every other round of measured requests, one per connection
  /// (the rest are the untraced baseline for the overhead estimate).
  bool trace = false;
  /// Chooses the shard an alias must land on (routed workload); null =
  /// any. Called with a candidate alias name and the connection index.
  std::function<bool(const std::string&, size_t)> alias_fits;
};

/// Builds the run's shapes, aliases and requests: pre-warm first, then the
/// open-loop schedule (Poisson arrivals), then the closed-loop pool.
RequestTable BuildSchedule(const WorkloadSpec& spec, const ScheduleParams& p);

/// Steady-clock now in ns.
int64_t NowNs();

}  // namespace upa::releasebench
