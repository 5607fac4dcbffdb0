#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/cache.h"
#include "engine/context.h"
#include "engine/metrics.h"

namespace upa::engine {
namespace {

TEST(BlockCacheTest, MissThenHit) {
  ExecMetrics metrics;
  BlockCache cache(&metrics);
  int computes = 0;
  auto v1 = cache.GetOrCompute<int>(7, [&] {
    ++computes;
    return 42;
  });
  auto v2 = cache.GetOrCompute<int>(7, [&] {
    ++computes;
    return 42;
  });
  EXPECT_EQ(*v1, 42);
  EXPECT_EQ(*v2, 42);
  EXPECT_EQ(computes, 1);
  auto snap = metrics.Snapshot();
  EXPECT_EQ(snap.cache_hits, 1u);
  EXPECT_EQ(snap.cache_misses, 1u);
  EXPECT_DOUBLE_EQ(snap.cache_hit_rate(), 0.5);
}

TEST(BlockCacheTest, DistinctKeysAreDistinctBlocks) {
  ExecMetrics metrics;
  BlockCache cache(&metrics);
  cache.Put<int>(1, 10);
  cache.Put<int>(2, 20);
  EXPECT_EQ(*cache.Get<int>(1), 10);
  EXPECT_EQ(*cache.Get<int>(2), 20);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(BlockCacheTest, GetOnMissingReturnsNull) {
  ExecMetrics metrics;
  BlockCache cache(&metrics);
  EXPECT_EQ(cache.Get<int>(99), nullptr);
  EXPECT_EQ(metrics.Snapshot().cache_misses, 1u);
}

TEST(BlockCacheTest, ClearEmptiesCache) {
  ExecMetrics metrics;
  BlockCache cache(&metrics);
  cache.Put<std::string>(1, "x");
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Get<std::string>(1), nullptr);
}

TEST(BlockCacheTest, StoresComplexTypes) {
  ExecMetrics metrics;
  BlockCache cache(&metrics);
  std::vector<double> payload{1.0, 2.0, 3.0};
  cache.Put<std::vector<double>>(5, payload);
  auto got = cache.Get<std::vector<double>>(5);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, payload);
}

TEST(BlockCacheTest, WorksWithoutMetrics) {
  BlockCache cache(nullptr);
  auto v = cache.GetOrCompute<int>(1, [] { return 5; });
  EXPECT_EQ(*v, 5);
}

TEST(ExecMetricsTest, SnapshotDeltaArithmetic) {
  ExecMetrics m;
  m.AddTasks(3);
  m.AddRecords(100);
  auto before = m.Snapshot();
  m.AddTasks(2);
  m.AddRecords(50);
  m.AddShuffleRound();
  m.AddShuffleRecords(25);
  auto delta = m.Snapshot() - before;
  EXPECT_EQ(delta.tasks_launched, 2u);
  EXPECT_EQ(delta.records_processed, 50u);
  EXPECT_EQ(delta.shuffle_rounds, 1u);
  EXPECT_EQ(delta.shuffle_records, 25u);
}

TEST(ExecMetricsTest, PhaseSecondsAccumulate) {
  ExecMetrics m;
  m.AddPhaseSeconds("map", 0.5);
  m.AddPhaseSeconds("map", 0.25);
  m.AddPhaseSeconds("reduce", 1.0);
  auto snap = m.Snapshot();
  EXPECT_DOUBLE_EQ(snap.phase_seconds.at("map"), 0.75);
  EXPECT_DOUBLE_EQ(snap.phase_seconds.at("reduce"), 1.0);
}

TEST(ExecMetricsTest, PhaseDeltaSubtracts) {
  ExecMetrics m;
  m.AddPhaseSeconds("map", 1.0);
  auto before = m.Snapshot();
  m.AddPhaseSeconds("map", 0.5);
  auto delta = m.Snapshot() - before;
  EXPECT_DOUBLE_EQ(delta.phase_seconds.at("map"), 0.5);
}

TEST(ExecMetricsTest, HitRateEdgeCases) {
  MetricsSnapshot s;
  EXPECT_DOUBLE_EQ(s.cache_hit_rate(), 0.0);
  s.cache_hits = 3;
  s.cache_misses = 1;
  EXPECT_DOUBLE_EQ(s.cache_hit_rate(), 0.75);
}

TEST(ExecMetricsTest, NamedCountersAccumulateAndSubtract) {
  ExecMetrics m;
  m.AddCounter("service/queries");
  m.AddCounter("service/queries", 4);
  m.AddCounter("service/rejected");
  auto before = m.Snapshot();
  m.AddCounter("service/queries", 2);
  auto delta = m.Snapshot() - before;
  EXPECT_EQ(before.counters.at("service/queries"), 5u);
  EXPECT_EQ(before.counters.at("service/rejected"), 1u);
  EXPECT_EQ(delta.counters.at("service/queries"), 2u);
  EXPECT_EQ(delta.counters.at("service/rejected"), 0u);
}

TEST(HistogramTest, BucketsCoverMicrosToMinutes) {
  EXPECT_EQ(HistogramSnapshot::BucketOf(0.0), 0u);
  EXPECT_EQ(HistogramSnapshot::BucketOf(5e-7), 0u);
  // Each bucket's upper bound lands in that bucket's range.
  for (size_t i = 1; i + 1 < HistogramSnapshot::kBuckets; ++i) {
    double upper = HistogramSnapshot::BucketUpperSeconds(i);
    EXPECT_EQ(HistogramSnapshot::BucketOf(upper * 0.99), i) << i;
    EXPECT_EQ(HistogramSnapshot::BucketOf(upper * 1.01), i + 1) << i;
  }
  // Far beyond the last bound: clamped into the open-ended top bucket.
  EXPECT_EQ(HistogramSnapshot::BucketOf(1e9),
            HistogramSnapshot::kBuckets - 1);
}

TEST(HistogramTest, QuantilesTrackObservations) {
  ExecMetrics m;
  // 90 fast observations (~2µs), 10 slow (~1ms).
  for (int i = 0; i < 90; ++i) m.RecordLatency("phase", 2e-6);
  for (int i = 0; i < 10; ++i) m.RecordLatency("phase", 1e-3);
  auto hist = m.Snapshot().latency.at("phase");
  EXPECT_EQ(hist.count, 100u);
  EXPECT_NEAR(hist.MeanSeconds(), (90 * 2e-6 + 10 * 1e-3) / 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(hist.max_seconds, 1e-3);
  // p50 is in the fast band, p99 in the slow band (bucket resolution 2x).
  EXPECT_LE(hist.QuantileSeconds(0.5), 8e-6);
  EXPECT_GE(hist.QuantileSeconds(0.99), 5e-4);
  // Quantiles never exceed the observed max.
  EXPECT_LE(hist.QuantileSeconds(1.0), hist.max_seconds);
}

TEST(HistogramTest, SnapshotSubtractionIsolatesNewObservations) {
  ExecMetrics m;
  m.RecordLatency("phase", 1e-3);
  auto before = m.Snapshot();
  m.RecordLatency("phase", 4e-3);
  auto delta = m.Snapshot() - before;
  EXPECT_EQ(delta.latency.at("phase").count, 1u);
  EXPECT_NEAR(delta.latency.at("phase").sum_seconds, 4e-3, 1e-9);
}

TEST(HistogramTest, EmptyHistogramIsWellBehaved) {
  HistogramSnapshot hist;
  EXPECT_DOUBLE_EQ(hist.QuantileSeconds(0.5), 0.0);
  EXPECT_DOUBLE_EQ(hist.MeanSeconds(), 0.0);
}

TEST(ExecContextTest, TimePhaseAttributesTime) {
  ExecContext ctx(ExecConfig{.threads = 1, .default_partitions = 2});
  int result = ctx.TimePhase("work", [] { return 7; });
  EXPECT_EQ(result, 7);
  auto snap = ctx.metrics().Snapshot();
  EXPECT_GE(snap.phase_seconds.at("work"), 0.0);
}

TEST(ExecContextTest, TimePhaseVoidVariant) {
  ExecContext ctx(ExecConfig{.threads = 1, .default_partitions = 2});
  bool ran = false;
  ctx.TimePhase("void_work", [&] { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_TRUE(ctx.metrics().Snapshot().phase_seconds.contains("void_work"));
}

}  // namespace
}  // namespace upa::engine
