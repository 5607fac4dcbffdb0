// Execution metrics for the mini-Spark engine.
//
// The paper's evaluation reasons about *where* UPA's overhead comes from
// (shuffle rounds for joins and the Range Enforcer, §VI-D; cache hit rate in
// the sampled-neighbour phase, Fig 4b). These counters make the same
// attribution observable in this reproduction.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace upa::engine {

/// Latency histogram with power-of-two buckets from 1µs up: bucket i
/// covers (2^(i-1)µs, 2^i µs], bucket 0 is everything up to 1µs, the last
/// bucket is open-ended (≥ ~67s). Quantiles are estimated from the bucket
/// upper bounds, which is the resolution observability needs (p50/p99 per
/// service phase), not a timing instrument.
struct HistogramSnapshot {
  static constexpr size_t kBuckets = 28;

  uint64_t count = 0;
  double sum_seconds = 0.0;
  double max_seconds = 0.0;
  std::array<uint64_t, kBuckets> buckets{};

  /// Upper bound (seconds) of bucket i.
  static double BucketUpperSeconds(size_t i);
  /// Bucket index for a latency.
  static size_t BucketOf(double seconds);

  /// Estimated quantile (q in [0,1]) as the upper bound of the bucket
  /// containing the q-th observation; 0 when empty.
  double QuantileSeconds(double q) const;
  double MeanSeconds() const { return count == 0 ? 0.0 : sum_seconds / count; }

  HistogramSnapshot operator-(const HistogramSnapshot& base) const;
};

/// Point-in-time copy of all counters. Subtractable to get per-query deltas.
struct MetricsSnapshot {
  uint64_t tasks_launched = 0;
  uint64_t records_processed = 0;
  uint64_t shuffle_rounds = 0;
  uint64_t shuffle_records = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Columnar engine: batch-kernel launches and the rows they covered
  /// (one "batch" = one fixed-size chunk of a vectorized operator).
  uint64_t kernel_batches = 0;
  uint64_t kernel_rows = 0;
  /// The executor's cross-release S′ memo (rel::PlanExecutor): one provenance
  /// passes answered from a remembered plan vs run in full. Separate from
  /// the block cache's hits and misses, which Fig 4(b) reads.
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  std::map<std::string, double> phase_seconds;
  /// Per-phase parallelism: how many pool chunk-tasks each named phase
  /// fanned out to (1 per call = that phase ran inline/sequentially).
  std::map<std::string, uint64_t> phase_tasks;
  /// Free-form named counters (service admission, sensitivity-cache
  /// hits/misses, budget refunds, ...).
  std::map<std::string, uint64_t> counters;
  /// Per-phase latency distributions (one observation per query/request,
  /// vs phase_seconds which accumulates total time). Morsel-driven phases
  /// also record one observation per executed morsel under
  /// "morsel/<phase>", making chunk-duration spread observable (the old
  /// static chunking hid it entirely).
  std::map<std::string, HistogramSnapshot> latency;
  /// Point-in-time gauges (doubles, last-write-wins; not subtractable —
  /// operator- copies the later value). "imbalance/<phase>" is the worst
  /// max/mean morsel-duration ratio seen for that phase: 1.0 means
  /// perfectly balanced work, thread_count means one morsel carried the
  /// entire phase.
  std::map<std::string, double> gauges;

  MetricsSnapshot operator-(const MetricsSnapshot& base) const;

  double cache_hit_rate() const {
    uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) /
                                  static_cast<double>(total);
  }
};

/// Thread-safe counters. One instance lives in each ExecContext.
class ExecMetrics {
 public:
  void AddTasks(uint64_t n) { tasks_.fetch_add(n, std::memory_order_relaxed); }
  void AddRecords(uint64_t n) {
    records_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddShuffleRound() {
    shuffle_rounds_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddShuffleRecords(uint64_t n) {
    shuffle_records_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddCacheHit() { cache_hits_.fetch_add(1, std::memory_order_relaxed); }
  void AddCacheMiss() {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddKernelBatches(uint64_t n) {
    kernel_batches_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddKernelRows(uint64_t n) {
    kernel_rows_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddMemoHit() { memo_hits_.fetch_add(1, std::memory_order_relaxed); }
  void AddMemoMiss() { memo_misses_.fetch_add(1, std::memory_order_relaxed); }
  void AddPhaseSeconds(const std::string& phase, double seconds);
  /// Record that `phase` split its work into `n` pool chunk-tasks.
  void AddPhaseTasks(const std::string& phase, uint64_t n);
  /// Bump a free-form named counter.
  void AddCounter(const std::string& name, uint64_t n = 1);
  /// Record one latency observation into the named histogram.
  void RecordLatency(const std::string& name, double seconds);
  /// Record one morsel-driven parallel section: every duration in
  /// `morsel_seconds` lands in the "morsel/<phase>" histogram and the
  /// run's max/mean imbalance updates the worst-seen "imbalance/<phase>"
  /// gauge. No-op on an empty sample.
  void RecordMorselRun(const std::string& phase,
                       const std::vector<double>& morsel_seconds);

  MetricsSnapshot Snapshot() const;

 private:
  std::atomic<uint64_t> tasks_{0};
  std::atomic<uint64_t> records_{0};
  std::atomic<uint64_t> shuffle_rounds_{0};
  std::atomic<uint64_t> shuffle_records_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> kernel_batches_{0};
  std::atomic<uint64_t> kernel_rows_{0};
  std::atomic<uint64_t> memo_hits_{0};
  std::atomic<uint64_t> memo_misses_{0};

  mutable std::mutex phase_mu_;
  std::map<std::string, double> phase_seconds_;
  std::map<std::string, uint64_t> phase_tasks_;
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, HistogramSnapshot> latency_;
  std::map<std::string, double> gauges_;
};

}  // namespace upa::engine
