#include "relational/table.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "common/status.h"
#include "relational/columnar.h"

namespace upa::rel {

namespace {
std::atomic<uint64_t> g_next_table_uid{1};
}  // namespace

double ColumnStats::FractionBelow(double bound) const {
  UPA_CHECK_MSG(numeric && !histogram.empty(),
                "FractionBelow needs a numeric histogram");
  if (bound <= min) return 0.0;
  if (bound > max) return 1.0;
  size_t total = 0;
  for (size_t c : histogram) total += c;
  if (total == 0) return 0.0;
  if (max == min) return 0.0;  // bound in (min, max] with min==max → below none
  const double width = (max - min) / static_cast<double>(histogram.size());
  const double offset = (bound - min) / width;
  const size_t full = std::min(static_cast<size_t>(offset), histogram.size());
  size_t below = 0;
  for (size_t b = 0; b < full; ++b) below += histogram[b];
  double frac = static_cast<double>(below);
  if (full < histogram.size()) {
    // Linear interpolation inside the bucket `bound` falls in.
    frac += static_cast<double>(histogram[full]) *
            (offset - static_cast<double>(full));
  }
  return std::min(1.0, frac / static_cast<double>(total));
}

Table::Table(std::string name, Schema schema, std::vector<Row> rows)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      rows_(std::move(rows)),
      uid_(g_next_table_uid.fetch_add(1, std::memory_order_relaxed)) {
  for (const Row& row : rows_) {
    UPA_CHECK_MSG(row.size() == schema_.NumColumns(),
                  "row arity mismatch in table " + name_);
  }
}

ColumnStats Table::StatsFor(const std::string& column) const {
  {
    std::lock_guard lock(cache_mu_);
    auto it = stats_cache_.find(column);
    if (it != stats_cache_.end()) return it->second;
  }

  // Compute outside the lock (two racing threads may both compute; the
  // result is deterministic so whichever insert wins stores the same
  // value). rows_ and schema_ are immutable after construction.
  size_t idx = schema_.IndexOf(column);
  std::unordered_map<Value, size_t, ValueHash, ValueEq> freq;
  freq.reserve(rows_.size());
  for (const Row& row : rows_) ++freq[row[idx]];

  ColumnStats stats;
  stats.distinct = freq.size();
  for (const auto& [value, count] : freq) {
    stats.max_frequency = std::max(stats.max_frequency, count);
  }

  // Min/max and an equi-width histogram for numeric columns (the cost-based
  // optimizer's selectivity inputs). A column mixing strings with numerics
  // stays non-numeric — range estimation falls back to defaults there.
  stats.numeric = !rows_.empty();
  for (const Row& row : rows_) {
    if (!IsNumeric(row[idx])) {
      stats.numeric = false;
      break;
    }
  }
  if (stats.numeric) {
    stats.min = AsNumeric(rows_.front()[idx]);
    stats.max = stats.min;
    for (const Row& row : rows_) {
      const double v = AsNumeric(row[idx]);
      stats.min = std::min(stats.min, v);
      stats.max = std::max(stats.max, v);
    }
    const size_t nbuckets = ColumnStats::kHistogramBuckets;
    stats.histogram.assign(nbuckets, 0);
    const double span = stats.max - stats.min;
    for (const Row& row : rows_) {
      size_t b = 0;
      if (span > 0) {
        const double v = AsNumeric(row[idx]);
        b = std::min(nbuckets - 1,
                     static_cast<size_t>((v - stats.min) / span *
                                         static_cast<double>(nbuckets)));
      }
      ++stats.histogram[b];
    }
  }

  std::lock_guard lock(cache_mu_);
  return stats_cache_.emplace(column, stats).first->second;
}

size_t Table::MaxFrequency(const std::string& column) const {
  return StatsFor(column).max_frequency;
}

size_t Table::DistinctCount(const std::string& column) const {
  return StatsFor(column).distinct;
}

ColumnStats Table::Stats(const std::string& column) const {
  return StatsFor(column);
}

std::shared_ptr<const ColumnarTable> Table::Columnar() const {
  {
    std::lock_guard lock(cache_mu_);
    if (columnar_ != nullptr) return columnar_;
  }
  // Build outside the lock, like StatsFor: racing first users may both
  // build, the build is deterministic, and the first insert wins.
  std::shared_ptr<const ColumnarTable> built =
      ColumnarTable::Build(schema_, rows_);
  std::lock_guard lock(cache_mu_);
  if (columnar_ == nullptr) columnar_ = std::move(built);
  return columnar_;
}

void Table::ReleaseCaches() const {
  std::lock_guard lock(cache_mu_);
  stats_cache_.clear();
  columnar_.reset();
}

}  // namespace upa::rel
