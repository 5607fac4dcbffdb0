// Table: a named, schema'd row store plus the column statistics FLEX's
// static analysis consumes (max join-key frequency per column), and the
// lazily-built columnar representation the vectorized engine executes on.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "relational/schema.h"

namespace upa::rel {

class ColumnarTable;

/// Per-column statistics, computed lazily on first use. FLEX consumes
/// max_frequency; the cost-based optimizer (relational/card_est.h) consumes
/// distinct counts, min/max and the histogram for selectivity estimation.
struct ColumnStats {
  static constexpr size_t kHistogramBuckets = 32;

  size_t max_frequency = 0;
  size_t distinct = 0;
  /// True iff every cell is int64/double. min/max/histogram are only
  /// meaningful when set; string columns estimate through `distinct` alone.
  bool numeric = false;
  double min = 0.0;
  double max = 0.0;
  /// Equi-width bucket counts over [min, max] (empty for non-numeric or
  /// empty columns). The last bucket is closed so `max` lands inside.
  std::vector<size_t> histogram;

  /// Estimated fraction of cells strictly below `bound` (linear
  /// interpolation inside the containing bucket). Requires `numeric` and a
  /// non-empty histogram; callers fall back to a default otherwise.
  double FractionBelow(double bound) const;
};

class Table {
 public:
  Table(std::string name, Schema schema, std::vector<Row> rows);

  // A table is shared by pointer (Catalog) and never copied or moved: its
  // uid and memoized caches stay with the one object that owns the rows.
  Table(const Table&) = delete;
  Table(Table&&) = delete;
  Table& operator=(const Table&) = delete;
  Table& operator=(Table&&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  const std::vector<Row>& rows() const { return rows_; }
  size_t NumRows() const { return rows_.size(); }

  /// Process-unique identity, never reused. Cache keys use this instead of
  /// the Table* address: an address can be recycled by the allocator after
  /// a free (silently aliasing a stale cache entry), a uid cannot.
  uint64_t uid() const { return uid_; }

  /// Frequency of the most frequent value in `column` — the dataset
  /// metadata FLEX multiplies across joins (paper §II-B). Computed on
  /// first use and cached (metadata maintenance, as a real catalog would).
  /// Thread-safe: FLEX analysis and plan execution may share a catalog
  /// across pool threads.
  size_t MaxFrequency(const std::string& column) const;

  /// Number of distinct values in `column`. Thread-safe.
  size_t DistinctCount(const std::string& column) const;

  /// Full statistics for `column` (ndv, max frequency, min/max, histogram).
  /// Computed on first use and memoized under the same cache discipline as
  /// MaxFrequency/DistinctCount. Thread-safe.
  ColumnStats Stats(const std::string& column) const;

  /// The columnar representation (relational/columnar.h): one typed vector
  /// per column, strings dictionary-encoded. Built on first use and cached
  /// under the same discipline as the column statistics. Thread-safe.
  std::shared_ptr<const ColumnarTable> Columnar() const;

  /// Drops the memoized columnar form and column statistics. Shared_ptr
  /// copies held by in-flight queries stay valid; the next Columnar() call
  /// builds a fresh instance of the same columns. Thread-safe.
  void ReleaseCaches() const;

 private:
  ColumnStats StatsFor(const std::string& column) const;

  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
  uint64_t uid_;
  /// Guards stats_cache_ and columnar_ (first-use memoization).
  mutable std::mutex cache_mu_;
  mutable std::map<std::string, ColumnStats> stats_cache_;
  mutable std::shared_ptr<const ColumnarTable> columnar_;
};

/// Name → table lookup used by plan execution and FLEX analysis.
using Catalog = std::map<std::string, const Table*>;

}  // namespace upa::rel
