// release_bench: one DP release workload, end to end over the wire.
//
//   release_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--orders N] [--work-dir DIR]
//
// One run: set the stack up several times (setup_s is the median),
// pre-warming every alias the schedule uses; then alternate kRounds rounds
// of an open-loop stretch (seeded Poisson arrivals at the workload's rate,
// latency timed from each request's due time) and a closed-loop stretch
// (4 connections, fixed window each); then run the output checks, outside
// every timed region.
// See README.md for the metrics. Human-readable lines go first; the last
// stdout line is one JSON object with the end-to-end metrics (--trace 0) or
// the per-layer metrics (--trace 1). Exit code 1 when a check fails.
//
// In a traced run every other round of measured requests carries spans, recorded
// only by this benchmark's code: around the compiler callback's calls into
// rel::ParseSql, rel::Optimize and queries::MakePlanQuery, around the
// QueryInstance::execute_phases std::function, plus the server-reported
// fields of WireResult. The untraced half is the baseline for the tracing
// overhead.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "cluster/ring.h"
#include "common/hash.h"
#include "loadgen.h"
#include "relational/sql_exec.h"
#include "service/journal.h"
#include "stack.h"

namespace upa::releasebench {
namespace {

#ifndef RELEASEBENCH_BUILD_TYPE
#define RELEASEBENCH_BUILD_TYPE "unknown"
#endif

/// Outstanding requests per connection in the closed loop (and pre-warm).
constexpr size_t kWindow = 4;
/// The enforcer's default removal cap (RangeEnforcer max_removals).
constexpr size_t kRemovalCap = 64;
/// The generator is behind schedule when its p99 send lag exceeds this
/// (typically ~1 ms; a machine under heavy outside load can reach 25 ms).
constexpr double kMaxSendLagP99Ms = 50.0;
/// Set-up repeats at least kMinSetups times and until kMinSetupSeconds
/// have gone by (at most kMaxSetups times), so that a cheap set-up
/// (adhoc_cold's takes ~0.2 s) is the median of many.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 15;
constexpr double kMinSetupSeconds = 3.0;
/// Width of the closed-loop slices peak_qps takes its median over.
constexpr double kSliceSeconds = 0.25;
/// Open-loop / closed-loop alternations in one run: a stall of a few
/// seconds on a shared machine moves one or two of them.
constexpr size_t kRounds = 8;
/// Share of --seconds given to the open loop: enough samples for a p99
/// with more than ten beyond it at every workload's offered rate.
constexpr double kOpenShare = 0.85;
/// Laplace tail factor of the accuracy check: P(|Lap(b)| > 40 b) = e^-40.
constexpr double kTailFactor = 40.0;
/// Releases of one alias replayed through a fresh service.
constexpr size_t kReplayPrefix = 120;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  size_t orders = 10000;
  std::string work_dir = ".bench_build/releasebench-work";
};

bool ParseOptions(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") opt->workload = value;
    else if (key == "--seed") opt->seed = std::stoull(value);
    else if (key == "--seconds") opt->seconds = std::stod(value);
    else if (key == "--trace") opt->trace = value != "0";
    else if (key == "--orders") opt->orders = std::stoul(value);
    else if (key == "--work-dir") opt->work_dir = value;
    else return false;
  }
  return argc % 2 == 1 && FindWorkload(opt->workload) != nullptr &&
         opt->seconds > 0 && opt->orders > 0;
}

/// Linear-interpolated quantile of an ascending vector.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Quantile(values, 0.5);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// What the value was computed from, printed beside it.
  std::string base;
};

/// Collects check failures; a run with any is reported as incorrect.
struct Checks {
  std::vector<std::string> failures;
  size_t run = 0;
  void Expect(bool ok, const std::string& what) {
    ++run;
    if (!ok && failures.size() < 20) failures.push_back(what);
    if (!ok && failures.size() == 20) failures.push_back("...");
  }
};

const char* FsName(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    default: return "other";
  }
}

void ResetRows(RequestTable& table) {
  for (Request& req : table.requests) {
    req.sent_ns = req.done_ns = 0;
    req.answered = false;
    req.result = net::WireResult{};
  }
}

/// The closed-loop queues of one phase: one per connection, or a single
/// queue every connection draws from (`shared`).
std::vector<std::deque<size_t>> QueuesFor(const RequestTable& table,
                                          Phase phase, bool shared) {
  std::vector<std::deque<size_t>> queues(shared ? 1 : kConnections);
  for (size_t i = 0; i < table.requests.size(); ++i) {
    if (table.requests[i].phase == phase) {
      queues[shared ? 0 : table.requests[i].conn].push_back(i);
    }
  }
  return queues;
}

struct EngineCounters {
  double kernel_rows = 0, tasks = 0, skipped = 0, scanned = 0;
};

EngineCounters ReadEngine(const Stack& stack) {
  EngineCounters out;
  for (const auto& shard : stack.shards()) {
    engine::MetricsSnapshot snap = shard->ctx->metrics().Snapshot();
    out.kernel_rows += static_cast<double>(snap.kernel_rows);
    out.tasks += static_cast<double>(snap.tasks_launched);
    out.skipped += static_cast<double>(snap.counters["columnar/fragments_skipped"]);
    out.scanned += static_cast<double>(snap.counters["columnar/fragments_scanned"]);
  }
  return out;
}

/// Replays the first releases of one alias, in the order they were sent,
/// through a fresh in-process service and compares every released value
/// bit for bit. The alias has one connection, so its send order is its
/// release order (open- and closed-loop rounds interleave, so row order is
/// not).
void CheckReplay(const Stack& stack, const RequestTable& table, uint32_t alias,
                 Checks* checks) {
  engine::ExecContext ctx(engine::ExecConfig{.threads = 4, .default_partitions = 4});
  auto executor =
      std::make_shared<const rel::PlanExecutor>(&ctx, &stack.catalog());
  service::UpaService svc(&ctx, MakeServiceConfig(4, ""));
  net::QueryCompiler compile =
      MakeCompiler(&ctx, executor, &stack.data(), &stack.catalog(), nullptr);
  std::vector<size_t> order;
  for (size_t i = 0; i < table.requests.size(); ++i) {
    if (table.requests[i].alias == alias && table.requests[i].answered) order.push_back(i);
  }
  // Frames written by one write share a send time; they went out in row order.
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return table.requests[a].sent_ns < table.requests[b].sent_ns;
  });
  if (order.size() > kReplayPrefix) order.resize(kReplayPrefix);
  const size_t failures_before = checks->failures.size();
  size_t replayed = 0;
  for (size_t i : order) {
    const Request& req = table.requests[i];
    net::WireQuery wire = table.WireFor(i);
    Result<core::QueryInstance> compiled = compile(wire);
    checks->Expect(compiled.ok(), "replay compile failed");
    if (!compiled.ok()) return;
    service::QueryRequest request;
    request.tenant = wire.tenant;
    request.dataset_id = wire.dataset_id;
    request.query = std::move(compiled).value();
    request.epsilon = wire.epsilon;
    request.seed = wire.seed;
    request.fingerprint = Fnv1a(wire.sql);
    request.client_nonce = wire.client_nonce;
    request.client_seq = wire.client_seq;
    Result<service::QueryResponse> got = svc.Execute(std::move(request));
    bool same = got.ok() == req.result.ok();
    if (same && got.ok()) {
      same = std::memcmp(&got.value().released, &req.result.response.released,
                         sizeof(double)) == 0;
    }
    checks->Expect(same, "replay of request " + std::to_string(i) +
                             " is not bit-identical");
    ++replayed;
  }
  checks->Expect(replayed > 0, "replay had nothing to replay");
  std::printf("# replay check: %zu releases of %s replayed bit-identically: %s\n",
              replayed, table.aliases[alias].c_str(),
              checks->failures.size() == failures_before ? "yes" : "no");
}

void PrintJson(const Checks& checks, size_t attempted, size_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              checks.failures.empty() ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 1e300;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Run(const Options& opt) {
  const WorkloadSpec& spec = *FindWorkload(opt.workload);
  const double open_seconds = opt.seconds * kOpenShare;
  const double closed_seconds = opt.seconds - open_seconds;

  ScheduleParams params;
  params.seed = opt.seed;
  params.open_seconds = open_seconds;
  params.closed_pool =
      static_cast<size_t>(std::ceil(spec.closed_cap_qps * closed_seconds));
  params.trace = opt.trace;
  cluster::ConsistentHashRing ring(2, cluster::RouterConfig{}.ring_vnodes);
  if (spec.routed) {
    // Pin connection c's aliases to shard c % 2: half the aliases each.
    params.alias_fits = [&ring](const std::string& alias, size_t stream) {
      return ring.ShardFor(alias) == stream % 2;
    };
  }
  RequestTable table = BuildSchedule(spec, params);

  std::printf("# workload %s seed %llu trace %d\n", spec.name.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  std::filesystem::create_directories(opt.work_dir);
  std::printf(
      "# meta nproc=%ld build=%s compiler=\"%s\" journal_fs=%s fsync=on "
      "orders=%zu engine_threads=4 max_in_flight=%s epsilon=%g offered_qps=%g "
      "closed_loop=%zux%zu\n",
      ::sysconf(_SC_NPROCESSORS_ONLN), RELEASEBENCH_BUILD_TYPE, __VERSION__,
      FsName(opt.work_dir), opt.orders, spec.routed ? "2+2" : "4", kEpsilon,
      spec.offered_qps, kConnections, kWindow);

  Checks checks;
  // --- Setup, repeated; the last stack serves the measured phases.
  std::vector<double> setup_seconds;
  double setup_total = 0.0;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<LoadGen> gen;
  std::string journal_root;
  for (size_t k = 0;
       k < kMaxSetups && (k < kMinSetups || setup_total < kMinSetupSeconds); ++k) {
    gen.reset();
    stack.reset();
    // Give the previous set-up's freed memory back, so that peak_rss_mb
    // follows the measured stack rather than how earlier ones fragmented.
    ::malloc_trim(0);
    if (!journal_root.empty()) std::filesystem::remove_all(journal_root);
    journal_root = opt.work_dir + "/journal-" + std::to_string(::getpid()) +
                   "-" + std::to_string(k);
    std::filesystem::remove_all(journal_root);
    ResetRows(table);

    int64_t t0 = NowNs();
    stack = std::make_unique<Stack>(opt.orders, spec.routed, &table, journal_root);
    Status st = stack->Start();
    if (!st.ok()) {
      std::fprintf(stderr, "start: %s\n", st.ToString().c_str());
      return 2;
    }
    auto connected = LoadGen::Connect(stack->port(), kConnections);
    if (!connected.ok()) {
      std::fprintf(stderr, "connect: %s\n", connected.status().ToString().c_str());
      return 2;
    }
    gen = std::move(connected).value();
    std::vector<std::deque<size_t>> prewarm_queues =
        QueuesFor(table, Phase::kPrewarm, false);
    st = gen->RunClosed(table, prewarm_queues, kWindow, INT64_MAX / 2, 120.0);
    if (!st.ok()) {
      std::fprintf(stderr, "pre-warm: %s\n", st.ToString().c_str());
      return 2;
    }
    setup_seconds.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    setup_total += setup_seconds.back();
  }
  std::printf("# data lineitem_rows=%zu orders_rows=%zu aliases=%zu shapes=%zu\n",
              stack->data().lineitem().NumRows(), stack->data().orders().NumRows(),
              table.aliases.size(), table.shapes.size());
  size_t prewarm = 0;
  for (const Request& req : table.requests) {
    if (req.phase != Phase::kPrewarm) continue;
    ++prewarm;
    checks.Expect(req.answered && req.result.ok(),
                  "pre-warm release failed: " + req.result.message);
  }

  // --- Measured phases.
  EngineCounters engine_before = ReadEngine(*stack);
  uint64_t rejects_before =
      spec.routed ? stack->router()->stats().rejected_backpressure : 0;
  // The phases alternate in kRounds rounds (an open-loop stretch, then a
  // closed-loop stretch), so that each samples the whole run rather than
  // one stretch of the machine's speed.
  std::vector<std::deque<size_t>> closed_queues =
      QueuesFor(table, Phase::kClosed, spec.shared_alias);
  struct Window {
    int64_t start = 0, end = 0;
  };
  std::vector<Window> closed_windows;
  for (size_t round = 0; round < kRounds; ++round) {
    const int64_t round_start = NowNs() + 1'000'000;
    const int64_t first_due =
        static_cast<int64_t>(open_seconds * 1e9 * static_cast<double>(round) / kRounds);
    const int64_t last_due =
        static_cast<int64_t>(open_seconds * 1e9 * static_cast<double>(round + 1) / kRounds);
    std::vector<size_t> open_order;
    for (size_t i = 0; i < table.requests.size(); ++i) {
      Request& req = table.requests[i];
      if (req.phase != Phase::kOpen || req.due_ns < first_due || req.due_ns >= last_due) {
        continue;
      }
      req.due_at_ns = round_start + req.due_ns - first_due;
      open_order.push_back(i);
    }
    Status st = gen->RunOpen(table, open_order, 30.0);
    if (!st.ok()) {
      std::fprintf(stderr, "open loop: %s\n", st.ToString().c_str());
      return 2;
    }
    Window window{NowNs(), 0};
    window.end = window.start + static_cast<int64_t>(closed_seconds / kRounds * 1e9);
    st = gen->RunClosed(table, closed_queues, kWindow, window.end, 30.0);
    if (!st.ok()) {
      std::fprintf(stderr, "closed loop: %s\n", st.ToString().c_str());
      return 2;
    }
    bool dry = true;
    for (const auto& queue : closed_queues) dry = dry && queue.empty();
    if (dry) {
      // A pool that ran dry ends the window at its last reply.
      int64_t last_done = window.start;
      for (const Request& req : table.requests) {
        if (req.phase == Phase::kClosed && req.answered && req.done_ns <= window.end) {
          last_done = std::max(last_done, req.done_ns);
        }
      }
      window.end = last_done;
    }
    if (window.end > window.start) closed_windows.push_back(window);
  }
  EngineCounters engine_after = ReadEngine(*stack);
  uint64_t rejects =
      spec.routed ? stack->router()->stats().rejected_backpressure - rejects_before
                  : 0;

  // --- Tallies (outside every timed region from here on).
  size_t attempted = 0, ok = 0, closed_unsent = 0;
  std::vector<double> latency_all, latency_traced, latency_untraced, send_lag;
  std::vector<std::vector<double>> latency_round(kRounds);
  for (const Request& req : table.requests) {
    if (req.phase == Phase::kPrewarm) continue;
    if (!req.answered) {
      if (req.phase == Phase::kClosed) ++closed_unsent;
      continue;
    }
    ++attempted;
    if (req.result.ok()) ++ok;
    if (req.phase == Phase::kOpen) {
      // A refused or failed request misses every latency limit.
      double ms = req.result.ok() ? static_cast<double>(req.done_ns - req.due_at_ns) * 1e-6
                                  : INFINITY;
      latency_all.push_back(ms);
      size_t round = static_cast<size_t>(static_cast<double>(req.due_ns) * 1e-9 /
                                         open_seconds * kRounds);
      latency_round[std::min(round, kRounds - 1)].push_back(ms);
      (req.traced ? latency_traced : latency_untraced).push_back(ms);
      send_lag.push_back(static_cast<double>(req.sent_ns - req.due_at_ns) * 1e-6);
    }
  }
  for (auto* v : {&latency_all, &latency_traced, &latency_untraced, &send_lag}) {
    std::sort(v->begin(), v->end());
  }
  // The p50 is taken per round and reported as the median across rounds,
  // so that one slow stretch of a shared machine moves one round, not the
  // figure. The p99 pools every round, which leaves enough samples beyond it.
  std::vector<double> round_p50;
  size_t round_min = SIZE_MAX;
  for (std::vector<double>& v : latency_round) {
    std::sort(v.begin(), v.end());
    round_p50.push_back(Quantile(v, 0.5));
    round_min = std::min(round_min, v.size());
  }
  // Sustained rate: the median over equal slices of the closed windows, so
  // that a short stall of the machine moves one slice, not the figure.
  std::vector<double> slice_qps;
  size_t closed_ok_in_window = 0;
  double closed_window_s = 0.0;
  for (const Window& w : closed_windows) {
    const double seconds = static_cast<double>(w.end - w.start) * 1e-9;
    const size_t slices = std::max<size_t>(1, static_cast<size_t>(seconds / kSliceSeconds));
    std::vector<double> counts(slices, 0.0);
    for (const Request& req : table.requests) {
      if (req.phase != Phase::kClosed || !req.answered || !req.result.ok() ||
          req.done_ns < w.start || req.done_ns > w.end) {
        continue;
      }
      size_t slice = static_cast<size_t>(static_cast<double>(req.done_ns - w.start) * 1e-9 /
                                         seconds * static_cast<double>(slices));
      counts[std::min(slice, slices - 1)] += 1.0;
      ++closed_ok_in_window;
    }
    for (double count : counts) slice_qps.push_back(count * static_cast<double>(slices) / seconds);
    closed_window_s += seconds;
  }

  // --- Output checks.
  std::map<uint32_t, double> exact;
  for (const Request& req : table.requests) {
    if (!req.answered || !req.result.ok() || exact.count(req.shape)) continue;
    Result<rel::SqlResultSet> rs = rel::ExecuteSql(
        stack->shards()[0]->ctx.get(), stack->catalog(), table.shapes[req.shape].sql);
    checks.Expect(rs.ok() && rs.value().rows.size() == 1,
                  "exact answer failed for " + table.shapes[req.shape].sql);
    exact[req.shape] = rs.ok() && !rs.value().rows.empty()
                           ? rel::AsNumeric(rs.value().rows[0][0])
                           : NAN;
    checks.Expect(exact[req.shape] != 0.0, "a shape's exact answer is 0");
  }
  size_t capped = 0, releases_all = 0, removed_max = 0;
  std::vector<double> rel_error;
  double hits = 0, attacks = 0, removed = 0, noise = 0;
  for (const Request& req : table.requests) {
    if (!req.answered || !req.result.ok()) continue;
    ++releases_all;
    const service::QueryResponse& r = req.result.response;
    checks.Expect(std::isfinite(r.released) && r.local_sensitivity > 0 &&
                      r.out_range.lo <= r.out_range.hi,
                  "release is not finite / has no sensitivity / empty range");
    double truth = exact[req.shape];
    double scale = r.local_sensitivity / r.epsilon;
    double allowed = kTailFactor * scale + r.out_range.width() +
                     static_cast<double>(r.records_removed) * r.local_sensitivity +
                     1e-9 * std::fabs(truth);
    checks.Expect(std::fabs(r.released - truth) <= allowed,
                  "release outside the Laplace tail bound: " + table.shapes[req.shape].sql);
    if (r.records_removed >= kRemovalCap) ++capped;
    removed_max = std::max(removed_max, r.records_removed);
    if (req.phase == Phase::kPrewarm) continue;
    rel_error.push_back(std::fabs(r.released - truth) / std::fabs(truth));
    hits += r.sensitivity_cache_hit;
    attacks += r.attack_suspected;
    removed += static_cast<double>(r.records_removed);
    noise += scale;
  }
  checks.Expect(capped == 0, "a release hit the enforcer removal cap");
  checks.Expect(attempted > 0 && ok > 0, "no measured release succeeded");
  checks.Expect(closed_window_s > 0, "empty closed-loop window");
  const double lag_p99 = Quantile(send_lag, 0.99);
  checks.Expect(lag_p99 <= kMaxSendLagP99Ms,
                "generator fell behind its schedule (send lag p99 " +
                    std::to_string(lag_p99) + " ms)");
  // One tenant per warm alias makes its release order deterministic.
  if (!spec.shared_alias && !spec.cold) CheckReplay(*stack, table, 0, &checks);

  // Where releases really ran: each alias's journal must sit on the shard
  // its connection was pinned to (connection c's aliases on shard c % 2),
  // and only there.
  std::map<std::string, size_t> pinned;
  for (const Request& req : table.requests) pinned[table.aliases[req.alias]] = req.conn % 2;
  std::map<std::string, size_t> journaled;
  size_t journal_records = 0;
  double journal_bytes = 0;
  for (size_t s = 0; s < stack->shards().size(); ++s) {
    const std::string& dir = stack->shards()[s]->journal_dir;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() != ".journal") continue;
      journal_bytes += static_cast<double>(entry.file_size());
      auto records = service::Journal::ReadAll(entry.path().string());
      checks.Expect(records.ok(), "journal unreadable");
      if (!records.ok()) continue;
      for (const auto& rec : records.value()) {
        if (rec.type == service::JournalRecord::Type::kOpen) {
          checks.Expect(journaled.emplace(rec.dataset_id, s).second,
                        rec.dataset_id + " has a journal on two shards");
        } else {
          ++journal_records;
        }
      }
    }
  }
  if (spec.routed) {
    size_t landed = 0;
    for (const auto& [alias, shard] : pinned) {
      auto it = journaled.find(alias);
      bool ok = it != journaled.end() && it->second == shard;
      landed += ok;
      checks.Expect(ok, alias + " did not run on the shard it was pinned to");
    }
    std::printf("# shard check: %zu of %zu aliases journaled only on their pinned shard\n",
                landed, pinned.size());
  }

  const double measured_ok = static_cast<double>(ok);
  std::sort(rel_error.begin(), rel_error.end());
  std::vector<Metric> metrics;
  char base[160];
  const size_t beyond_p99 =
      latency_all.size() -
      static_cast<size_t>(std::ceil(0.99 * static_cast<double>(latency_all.size())));
  std::snprintf(base, sizeof(base), "n=%zu open-loop releases, %zu beyond p99",
                latency_all.size(), beyond_p99);
  // The p99 is reported by the traced run, among the figures that carry no
  // regression bound: on a shared machine it moves with the machine's speed
  // at about twice the p50's spread.
  const Metric release_p99{"release_p99_ms", Quantile(latency_all, 0.99), "ms", base};
  if (!opt.trace) {
    std::snprintf(base, sizeof(base), "median of %zu rounds' p50; n=%zu open-loop releases, "
                  ">=%zu per round", kRounds, latency_all.size(), round_min);
    metrics.push_back({"release_p50_ms", Median(round_p50), "ms", base});
    std::snprintf(base, sizeof(base),
                  "median of %zu slices; %zu releases in %.3f s closed loop", slice_qps.size(),
                  closed_ok_in_window, closed_window_s);
    metrics.push_back({"peak_qps", Median(slice_qps), "1/s", base});
    std::snprintf(base, sizeof(base), "n=%zu releases", rel_error.size());
    metrics.push_back({"rel_error_p50", Quantile(rel_error, 0.5), "ratio", base});
    std::snprintf(base, sizeof(base), "%zu ok of %zu attempted", ok, attempted);
    metrics.push_back({"ok_share", attempted ? measured_ok / attempted : 0.0, "ratio", base});
    std::snprintf(base, sizeof(base), "median of %zu setups, %zu pre-warm releases each",
                  setup_seconds.size(), prewarm);
    metrics.push_back({"setup_s", Median(setup_seconds), "s", base});
    rusage usage {};
    ::getrusage(RUSAGE_SELF, &usage);
    metrics.push_back({"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
                       "MiB", "ru_maxrss of this process"});
  } else {
    // Spans of the traced open-loop releases; they tile due → decoded.
    std::map<std::string, std::vector<double>> spans;
    for (size_t i = 0; i < table.requests.size(); ++i) {
      const Request& req = table.requests[i];
      if (req.phase != Phase::kOpen || !req.traced || !req.answered || !req.result.ok()) continue;
      const ServerSpan& s = table.spans[i];
      auto at = [](const std::atomic<int64_t>& t) {
        return static_cast<double>(t.load(std::memory_order_relaxed)) * 1e-6;
      };
      const service::QueryResponse& r = req.result.response;
      double queue = r.queue_seconds * 1e3, sample = r.seconds.sample * 1e3;
      double reduce = r.seconds.reduce * 1e3, enforce = r.seconds.enforce * 1e3;
      double sent = static_cast<double>(req.sent_ns) * 1e-6;
      double done = static_cast<double>(req.done_ns) * 1e-6;
      spans["net.inbound_ms"].push_back(at(s.compile_entry) - sent);
      spans["relational.parse_ms"].push_back(at(s.parsed) - at(s.compile_entry));
      spans["relational.optimize_ms"].push_back(at(s.optimized) - at(s.parsed));
      spans["queries.plan_query_ms"].push_back(at(s.compiled) - at(s.optimized));
      spans["service.queue_ms"].push_back(queue);
      spans["service.dispatch_ms"].push_back(at(s.map_entry) - at(s.compiled) - queue - sample);
      spans["upa.sample_ms"].push_back(sample);
      spans["upa.map_ms"].push_back(at(s.map_exit) - at(s.map_entry));
      spans["upa.reduce_ms"].push_back(reduce);
      spans["upa.enforce_ms"].push_back(enforce);
      spans["service.commit_reply_ms"].push_back(done - at(s.map_exit) - reduce - enforce);
    }
    spans["client.send_lag_ms"] = send_lag;
    metrics.push_back(release_p99);
    for (const char* name :
         {"net.inbound_ms", "relational.parse_ms", "relational.optimize_ms",
          "queries.plan_query_ms", "service.queue_ms", "service.dispatch_ms",
          "upa.sample_ms", "upa.map_ms", "upa.reduce_ms", "upa.enforce_ms",
          "service.commit_reply_ms", "client.send_lag_ms"}) {
      std::vector<double>& v = spans[name];
      std::sort(v.begin(), v.end());
      std::snprintf(base, sizeof(base), "n=%zu traced open-loop releases", v.size());
      metrics.push_back({std::string(name) + ".p50", Quantile(v, 0.5), "ms", base});
      metrics.push_back({std::string(name) + ".p99", Quantile(v, 0.99), "ms", base});
    }
    auto ratio = [&](const char* name, double num, double den, const char* unit,
                     const std::string& what) {
      std::snprintf(base, sizeof(base), "%.0f / %.0f %s", num, den, what.c_str());
      metrics.push_back({name, den > 0 ? num / den : 0.0, unit, base});
    };
    ratio("service.sens_cache_hit_ratio", hits, measured_ok, "ratio", "measured releases");
    ratio("service.journal_records_per_release", static_cast<double>(journal_records),
          static_cast<double>(releases_all), "records/release", "releases incl. pre-warm");
    ratio("service.journal_bytes_per_release", journal_bytes,
          static_cast<double>(releases_all), "B/release", "releases incl. pre-warm");
    ratio("upa.enforce.attack_share", attacks, measured_ok, "ratio", "measured releases");
    ratio("upa.enforce.removed_per_release", removed, measured_ok, "records/release",
          "measured releases");
    metrics.push_back({"upa.enforce.capped", static_cast<double>(capped), "count",
                       "releases at the removal cap, incl. pre-warm"});
    metrics.push_back({"upa.enforce.removed_max", static_cast<double>(removed_max), "count",
                       "most records one release removed (cap 64), incl. pre-warm"});
    ratio("dp.noise_scale", noise, measured_ok, "value", "measured releases (mean sens/eps)");
    ratio("engine.kernel_rows_per_release", engine_after.kernel_rows - engine_before.kernel_rows,
          measured_ok, "rows/release", "measured releases");
    ratio("engine.tasks_per_release", engine_after.tasks - engine_before.tasks, measured_ok,
          "tasks/release", "measured releases");
    double skipped = engine_after.skipped - engine_before.skipped;
    double scanned = engine_after.scanned - engine_before.scanned;
    ratio("relational.fragments_skipped_share", skipped, skipped + scanned, "ratio",
          "fragments considered");
    metrics.push_back({"cluster.router.backpressure_rejects", static_cast<double>(rejects),
                       "count", "router rejects during the measured phases"});
    double traced_p50 = Quantile(latency_traced, 0.5);
    double untraced_p50 = Quantile(latency_untraced, 0.5);
    std::snprintf(base, sizeof(base), "n=%zu traced open-loop releases", latency_traced.size());
    metrics.push_back({"trace.traced_p50_ms", traced_p50, "ms", base});
    std::snprintf(base, sizeof(base), "n=%zu untraced open-loop releases",
                  latency_untraced.size());
    metrics.push_back({"trace.untraced_p50_ms", untraced_p50, "ms", base});
    metrics.push_back({"trace.overhead_share",
                       untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1.0 : 0.0, "ratio",
                       "traced / untraced p50 - 1, same run"});
  }

  std::printf("# phases: pre-warm %zu, open %zu sent, closed %zu sent (%zu unsent), "
              "ok %zu, failed %zu\n",
              prewarm, latency_all.size(), attempted - latency_all.size(), closed_unsent,
              ok, attempted - ok);
  std::printf("# checks: %zu run, %zu failed\n", checks.run, checks.failures.size());
  for (const std::string& f : checks.failures) std::printf("# CHECK FAILED: %s\n", f.c_str());
  for (const Metric& m : metrics) {
    std::printf("metric %-42s %14.6g %-16s (%s)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.base.c_str());
  }
  if (!opt.trace) {
    std::printf("# unbounded %-39s %14.6g %-16s (%s)\n", release_p99.name.c_str(),
                release_p99.value, release_p99.unit.c_str(), release_p99.base.c_str());
  }

  gen.reset();
  stack.reset();
  std::filesystem::remove_all(journal_root);
  PrintJson(checks, attempted, attempted - ok, metrics);
  std::fflush(stdout);
  return checks.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace upa::releasebench

int main(int argc, char** argv) {
  upa::releasebench::Options opt;
  if (!upa::releasebench::ParseOptions(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: release_bench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--orders N] [--work-dir DIR]\n");
    return 2;
  }
  return upa::releasebench::Run(opt);
}
