#include "engine/metrics.h"

#include <algorithm>
#include <cmath>

namespace upa::engine {

double HistogramSnapshot::BucketUpperSeconds(size_t i) {
  // Bucket i covers (2^(i-1), 2^i] microseconds; the last bucket is
  // open-ended but reports its lower edge as the bound.
  return std::ldexp(1e-6, static_cast<int>(std::min(i, kBuckets - 1)));
}

size_t HistogramSnapshot::BucketOf(double seconds) {
  if (!(seconds > 1e-6)) return 0;
  int exp = static_cast<int>(std::ceil(std::log2(seconds / 1e-6)));
  return std::min(static_cast<size_t>(std::max(exp, 0)),
                  kBuckets - 1);
}

double HistogramSnapshot::QuantileSeconds(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * count));
  rank = std::max<uint64_t>(rank, 1);
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      // Never report a quantile above the observed maximum (the top
      // bucket's upper bound can be far beyond it).
      return std::min(BucketUpperSeconds(i), max_seconds);
    }
  }
  return max_seconds;
}

HistogramSnapshot HistogramSnapshot::operator-(
    const HistogramSnapshot& base) const {
  HistogramSnapshot d;
  d.count = count - base.count;
  d.sum_seconds = sum_seconds - base.sum_seconds;
  d.max_seconds = max_seconds;  // max is not subtractable; keep the later one
  for (size_t i = 0; i < kBuckets; ++i) {
    d.buckets[i] = buckets[i] - base.buckets[i];
  }
  return d;
}

MetricsSnapshot MetricsSnapshot::operator-(const MetricsSnapshot& base) const {
  MetricsSnapshot d;
  d.tasks_launched = tasks_launched - base.tasks_launched;
  d.records_processed = records_processed - base.records_processed;
  d.shuffle_rounds = shuffle_rounds - base.shuffle_rounds;
  d.shuffle_records = shuffle_records - base.shuffle_records;
  d.cache_hits = cache_hits - base.cache_hits;
  d.cache_misses = cache_misses - base.cache_misses;
  d.kernel_batches = kernel_batches - base.kernel_batches;
  d.kernel_rows = kernel_rows - base.kernel_rows;
  d.memo_hits = memo_hits - base.memo_hits;
  d.memo_misses = memo_misses - base.memo_misses;
  d.phase_seconds = phase_seconds;
  for (const auto& [name, secs] : base.phase_seconds) {
    d.phase_seconds[name] -= secs;
  }
  d.phase_tasks = phase_tasks;
  for (const auto& [name, tasks] : base.phase_tasks) {
    d.phase_tasks[name] -= tasks;
  }
  d.counters = counters;
  for (const auto& [name, n] : base.counters) {
    d.counters[name] -= n;
  }
  d.latency = latency;
  for (const auto& [name, hist] : base.latency) {
    d.latency[name] = d.latency[name] - hist;
  }
  d.gauges = gauges;  // point-in-time values: the later snapshot wins
  return d;
}

void ExecMetrics::AddPhaseSeconds(const std::string& phase, double seconds) {
  std::lock_guard lock(phase_mu_);
  phase_seconds_[phase] += seconds;
}

void ExecMetrics::AddPhaseTasks(const std::string& phase, uint64_t n) {
  std::lock_guard lock(phase_mu_);
  phase_tasks_[phase] += n;
}

void ExecMetrics::AddCounter(const std::string& name, uint64_t n) {
  std::lock_guard lock(phase_mu_);
  counters_[name] += n;
}

void ExecMetrics::RecordLatency(const std::string& name, double seconds) {
  std::lock_guard lock(phase_mu_);
  HistogramSnapshot& hist = latency_[name];
  hist.count += 1;
  hist.sum_seconds += seconds;
  hist.max_seconds = std::max(hist.max_seconds, seconds);
  hist.buckets[HistogramSnapshot::BucketOf(seconds)] += 1;
}

void ExecMetrics::RecordMorselRun(const std::string& phase,
                                  const std::vector<double>& morsel_seconds) {
  if (morsel_seconds.empty()) return;
  double sum = 0.0, mx = 0.0;
  std::lock_guard lock(phase_mu_);
  HistogramSnapshot& hist = latency_["morsel/" + phase];
  for (double s : morsel_seconds) {
    hist.count += 1;
    hist.sum_seconds += s;
    hist.max_seconds = std::max(hist.max_seconds, s);
    hist.buckets[HistogramSnapshot::BucketOf(s)] += 1;
    sum += s;
    mx = std::max(mx, s);
  }
  if (morsel_seconds.size() > 1 && sum > 0.0) {
    double& g = gauges_["imbalance/" + phase];
    g = std::max(g, mx * static_cast<double>(morsel_seconds.size()) / sum);
  }
}

MetricsSnapshot ExecMetrics::Snapshot() const {
  MetricsSnapshot s;
  s.tasks_launched = tasks_.load(std::memory_order_relaxed);
  s.records_processed = records_.load(std::memory_order_relaxed);
  s.shuffle_rounds = shuffle_rounds_.load(std::memory_order_relaxed);
  s.shuffle_records = shuffle_records_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  s.kernel_batches = kernel_batches_.load(std::memory_order_relaxed);
  s.kernel_rows = kernel_rows_.load(std::memory_order_relaxed);
  s.memo_hits = memo_hits_.load(std::memory_order_relaxed);
  s.memo_misses = memo_misses_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(phase_mu_);
    s.phase_seconds = phase_seconds_;
    s.phase_tasks = phase_tasks_;
    s.counters = counters_;
    s.latency = latency_;
    s.gauges = gauges_;
  }
  return s;
}

}  // namespace upa::engine
