// Synthetic TPC-H-like dataset generator.
//
// Substitutes the paper's ~120GB dbgen datasets (DESIGN.md substitutions):
// same schema shape and — what actually matters for sensitivity — join-key
// frequency distributions with controllable skew. Lineitems-per-order,
// parts-per-partsupp and supplier references follow Zipf-ish distributions,
// so some join keys are much more frequent than others; that skew is
// exactly what makes FLEX's max-frequency product overestimate while UPA's
// dynamic analysis stays accurate.
//
// Dates are integer "days since 1992-01-01" in [0, kDateSpanDays).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "relational/table.h"

namespace upa::tpch {

inline constexpr int64_t kDateSpanDays = 2556;  // 7 years, 1992..1998

struct TpchConfig {
  /// Scale driver: everything else derives from the order count.
  size_t num_orders = 10000;
  /// Maximum lineitems per order (Zipf-skewed within [1, max]).
  size_t max_lineitems_per_order = 7;
  /// Zipf exponent for part/supplier reference skew (0 = uniform).
  double reference_skew = 1.1;
  uint64_t seed = 42;

  size_t num_customers() const { return std::max<size_t>(10, num_orders / 10); }
  size_t num_parts() const { return std::max<size_t>(20, num_orders / 5); }
  /// Floor of 25 so round-robin nation assignment covers every nation
  /// (Q11/Q21 filter on specific nations).
  size_t num_suppliers() const { return std::max<size_t>(25, num_orders / 100); }
  static constexpr size_t kNumNations = 25;
};

/// The generated database: seven tables + a catalog view + row samplers for
/// the "record added from D \ x" side of UPA's neighbour sampling.
class TpchDataset {
 public:
  explicit TpchDataset(TpchConfig config);

  const TpchConfig& config() const { return config_; }

  const rel::Table& lineitem() const { return *lineitem_; }
  const rel::Table& orders() const { return *orders_; }
  const rel::Table& customer() const { return *customer_; }
  const rel::Table& part() const { return *part_; }
  const rel::Table& supplier() const { return *supplier_; }
  const rel::Table& partsupp() const { return *partsupp_; }
  const rel::Table& nation() const { return *nation_; }

  /// Name → table view over all seven tables.
  rel::Catalog catalog() const;

  /// Table access by name; aborts on unknown names.
  const rel::Table& table(const std::string& name) const;

  /// Draws a fresh, distribution-plausible row for `table` — a record from
  /// the record domain D that is not (necessarily) in the dataset. Defined
  /// for lineitem, orders, partsupp, customer, supplier and part; aborts on
  /// any other table.
  rel::Row SampleRow(const std::string& table, Rng& rng) const;

  /// Draws `n` domain records of `table` straight into columns: the same
  /// draws, in the same order, as `n` calls of SampleRow, finished by
  /// ColumnarTable::Builder, so the result is what
  /// ColumnarTable::Build(schema, those rows) gives, with no rel::Row made.
  /// Unsupported for a table SampleRow does not support.
  Result<std::shared_ptr<const rel::ColumnarTable>> SampleColumns(
      const std::string& table, size_t n, Rng& rng) const;

  /// Returns a copy of `table`'s rows with `indices` (sorted) removed —
  /// convenience for building churned datasets in benches/tests.
  std::vector<rel::Row> RowsWithout(const std::string& table,
                                    const std::vector<size_t>& indices) const;

 private:
  /// The table named `name`, or null.
  const rel::Table* FindTable(const std::string& name) const;

  TpchConfig config_;
  std::unique_ptr<rel::Table> lineitem_, orders_, customer_, part_, supplier_,
      partsupp_, nation_;
};

/// The brand/type/segment/priority vocabularies (exported for tests and
/// query parameter choices).
const std::vector<std::string>& Brands();
const std::vector<std::string>& PartTypes();
const std::vector<std::string>& MarketSegments();
const std::vector<std::string>& OrderPriorities();
const std::vector<std::string>& NationNames();

}  // namespace upa::tpch
