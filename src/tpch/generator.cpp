#include "tpch/generator.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "common/status.h"
#include "relational/columnar.h"

namespace upa::tpch {

using rel::ColumnDef;
using rel::Row;
using rel::Schema;
using rel::Table;
using rel::Value;
using rel::ValueType;

namespace {

Schema LineitemSchema() {
  return Schema({{"l_orderkey", ValueType::kInt},
                 {"l_partkey", ValueType::kInt},
                 {"l_suppkey", ValueType::kInt},
                 {"l_quantity", ValueType::kDouble},
                 {"l_extendedprice", ValueType::kDouble},
                 {"l_discount", ValueType::kDouble},
                 {"l_shipdate", ValueType::kInt},
                 {"l_commitdate", ValueType::kInt},
                 {"l_receiptdate", ValueType::kInt},
                 {"l_returnflag", ValueType::kString}});
}

Schema OrdersSchema() {
  return Schema({{"o_orderkey", ValueType::kInt},
                 {"o_custkey", ValueType::kInt},
                 {"o_orderdate", ValueType::kInt},
                 {"o_orderpriority", ValueType::kString},
                 {"o_orderstatus", ValueType::kString}});
}

Schema CustomerSchema() {
  return Schema({{"c_custkey", ValueType::kInt},
                 {"c_nationkey", ValueType::kInt},
                 {"c_mktsegment", ValueType::kString}});
}

Schema PartSchema() {
  return Schema({{"p_partkey", ValueType::kInt},
                 {"p_brand", ValueType::kString},
                 {"p_type", ValueType::kString},
                 {"p_size", ValueType::kInt}});
}

Schema SupplierSchema() {
  return Schema({{"s_suppkey", ValueType::kInt},
                 {"s_nationkey", ValueType::kInt},
                 {"s_complaint", ValueType::kInt}});
}

Schema PartsuppSchema() {
  return Schema({{"ps_partkey", ValueType::kInt},
                 {"ps_suppkey", ValueType::kInt},
                 {"ps_availqty", ValueType::kInt},
                 {"ps_supplycost", ValueType::kDouble}});
}

Schema NationSchema() {
  return Schema({{"n_nationkey", ValueType::kInt},
                 {"n_name", ValueType::kString}});
}

template <typename T>
const T& PickUniform(const std::vector<T>& pool, Rng& rng) {
  return pool[rng.UniformU64(pool.size())];
}

/// Appends records to `rows`, one rel::Row per `columns` cells. The other
/// sink is rel::ColumnarTable::Builder, which appends them to typed columns.
class RowSink {
 public:
  RowSink(std::vector<Row>& rows, size_t columns)
      : rows_(rows), columns_(columns) {}
  void Int(int64_t v) { Next().emplace_back(v); }
  void Double(double v) { Next().emplace_back(v); }
  void String(std::string_view v) { Next().emplace_back(std::string(v)); }

 private:
  /// The row the next cell belongs to: a new one once the last is whole.
  Row& Next() {
    if (rows_.empty() || rows_.back().size() == columns_) {
      rows_.emplace_back().reserve(columns_);
    }
    return rows_.back();
  }

  std::vector<Row>& rows_;
  const size_t columns_;
};

// One definition of each table's draws, written through a sink (RowSink or
// rel::ColumnarTable::Builder) in schema order. One draw per statement:
// the order of a call's arguments is unspecified, and the draws must come
// in the same order whichever sink takes them.

/// The skewed part and supplier references of lineitem and partsupp
/// records, built once per generator or domain draw.
struct ReferenceSkew {
  explicit ReferenceSkew(const TpchConfig& config)
      : part(config.num_parts(), config.reference_skew),
        supplier(config.num_suppliers(), config.reference_skew) {}

  ZipfSampler part;
  ZipfSampler supplier;
};

template <typename Sink>
void DrawLineitem(const ReferenceSkew& skew, Rng& rng, int64_t orderkey,
                  Sink& out) {
  out.Int(orderkey);
  out.Int(static_cast<int64_t>(skew.part.Draw(rng)));
  out.Int(static_cast<int64_t>(skew.supplier.Draw(rng)));
  const double quantity = 1.0 + static_cast<double>(rng.UniformU64(50));
  out.Double(quantity);
  out.Double(quantity * rng.UniformDouble(900.0, 1100.0));
  out.Double(0.01 * static_cast<double>(rng.UniformU64(11)));  // 0..0.10
  const int64_t shipdate = rng.UniformInt(0, kDateSpanDays - 1);
  out.Int(shipdate);
  out.Int(std::min<int64_t>(kDateSpanDays - 1,
                            shipdate + rng.UniformInt(0, 60)));
  out.Int(std::min<int64_t>(kDateSpanDays - 1,
                            shipdate + rng.UniformInt(1, 45)));
  out.String(rng.Bernoulli(0.25) ? "R" : "N");
}

template <typename Sink>
void DrawOrders(const TpchConfig& config, Rng& rng, int64_t orderkey,
                Sink& out) {
  out.Int(orderkey);
  out.Int(static_cast<int64_t>(1 + rng.UniformU64(config.num_customers())));
  out.Int(rng.UniformInt(0, kDateSpanDays - 1));
  out.String(PickUniform(OrderPriorities(), rng));
  out.String(rng.Bernoulli(0.45) ? "F" : "O");
}

template <typename Sink>
void DrawCustomer(Rng& rng, int64_t custkey, Sink& out) {
  out.Int(custkey);
  out.Int(static_cast<int64_t>(rng.UniformU64(TpchConfig::kNumNations)));
  out.String(PickUniform(MarketSegments(), rng));
}

template <typename Sink>
void DrawPart(Rng& rng, int64_t partkey, Sink& out) {
  out.Int(partkey);
  out.String(PickUniform(Brands(), rng));
  out.String(PickUniform(PartTypes(), rng));
  out.Int(static_cast<int64_t>(1 + rng.UniformU64(50)));
}

template <typename Sink>
void DrawSupplier(Rng& rng, int64_t suppkey, Sink& out) {
  out.Int(suppkey);
  // Round-robin nation assignment guarantees every nation has suppliers at
  // any scale (Q11/Q21 filter on specific nations).
  out.Int((suppkey - 1) % TpchConfig::kNumNations);
  out.Int(rng.Bernoulli(0.05) ? 1 : 0);
}

template <typename Sink>
void DrawPartsupp(Rng& rng, int64_t partkey, int64_t suppkey, Sink& out) {
  out.Int(partkey);
  out.Int(suppkey);
  out.Int(static_cast<int64_t>(1 + rng.UniformU64(9999)));
  out.Double(rng.UniformDouble(1.0, 1000.0));
}

/// Draws `n` records of `table` from its record domain D into `out`, each
/// a key and then its table's draws. False for a table with no domain
/// (nation).
template <typename Sink>
bool DrawDomain(const TpchConfig& config, const std::string& table, size_t n,
                Rng& rng, Sink& out) {
  // A fresh key beyond the generated range [1, count]: a new record, not a
  // duplicate of an existing one.
  auto fresh_key = [&rng](size_t count) {
    return static_cast<int64_t>(count + 1 + rng.UniformU64(count));
  };
  if (table != "lineitem" && table != "orders" && table != "partsupp" &&
      table != "customer" && table != "supplier" && table != "part") {
    return false;
  }
  const ReferenceSkew skew(config);
  for (size_t i = 0; i < n; ++i) {
    if (table == "lineitem") {
      const auto orderkey =
          static_cast<int64_t>(1 + rng.UniformU64(config.num_orders));
      DrawLineitem(skew, rng, orderkey, out);
    } else if (table == "orders") {
      DrawOrders(config, rng, fresh_key(config.num_orders), out);
    } else if (table == "partsupp") {
      const auto partkey = static_cast<int64_t>(skew.part.Draw(rng));
      const auto suppkey = static_cast<int64_t>(skew.supplier.Draw(rng));
      DrawPartsupp(rng, partkey, suppkey, out);
    } else if (table == "customer") {
      DrawCustomer(rng, fresh_key(config.num_customers()), out);
    } else if (table == "supplier") {
      DrawSupplier(rng, fresh_key(config.num_suppliers()), out);
    } else {
      DrawPart(rng, fresh_key(config.num_parts()), out);
    }
  }
  return true;
}

}  // namespace

const std::vector<std::string>& Brands() {
  static const std::vector<std::string> kBrands = {
      "Brand#11", "Brand#12", "Brand#21", "Brand#23", "Brand#31",
      "Brand#34", "Brand#41", "Brand#45", "Brand#52", "Brand#55"};
  return kBrands;
}

const std::vector<std::string>& PartTypes() {
  static const std::vector<std::string> kTypes = {
      "STANDARD BRUSHED", "MEDIUM POLISHED", "ECONOMY ANODIZED",
      "SMALL PLATED",     "LARGE BURNISHED", "PROMO BRUSHED",
      "STANDARD POLISHED"};
  return kTypes;
}

const std::vector<std::string>& MarketSegments() {
  static const std::vector<std::string> kSegs = {
      "AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"};
  return kSegs;
}

const std::vector<std::string>& OrderPriorities() {
  static const std::vector<std::string> kPrios = {
      "1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"};
  return kPrios;
}

const std::vector<std::string>& NationNames() {
  static const std::vector<std::string> kNations = {
      "ALGERIA",    "ARGENTINA", "BRAZIL",  "CANADA",         "EGYPT",
      "ETHIOPIA",   "FRANCE",    "GERMANY", "INDIA",          "INDONESIA",
      "IRAN",       "IRAQ",      "JAPAN",   "JORDAN",         "KENYA",
      "MOROCCO",    "MOZAMBIQUE", "PERU",   "CHINA",          "ROMANIA",
      "SAUDI ARABIA", "VIETNAM", "RUSSIA",  "UNITED KINGDOM", "UNITED STATES"};
  return kNations;
}

TpchDataset::TpchDataset(TpchConfig config) : config_(config) {
  Rng rng = Rng::ForStream(config_.seed, "tpch/generator");

  // nation
  std::vector<Row> nations;
  for (size_t i = 0; i < TpchConfig::kNumNations; ++i) {
    nations.push_back(Row{Value{static_cast<int64_t>(i)},
                          Value{NationNames()[i]}});
  }
  nation_ = std::make_unique<Table>("nation", NationSchema(),
                                    std::move(nations));

  // supplier
  std::vector<Row> suppliers;
  RowSink supplier_rows(suppliers, SupplierSchema().NumColumns());
  for (size_t i = 1; i <= config_.num_suppliers(); ++i) {
    DrawSupplier(rng, static_cast<int64_t>(i), supplier_rows);
  }
  supplier_ = std::make_unique<Table>("supplier", SupplierSchema(),
                                      std::move(suppliers));

  // part
  std::vector<Row> parts;
  RowSink part_rows(parts, PartSchema().NumColumns());
  for (size_t i = 1; i <= config_.num_parts(); ++i) {
    DrawPart(rng, static_cast<int64_t>(i), part_rows);
  }
  part_ = std::make_unique<Table>("part", PartSchema(), std::move(parts));

  // partsupp: each part supplied by 1-4 Zipf-picked suppliers.
  const ReferenceSkew skew(config_);
  std::vector<Row> partsupps;
  RowSink partsupp_rows(partsupps, PartsuppSchema().NumColumns());
  for (size_t p = 1; p <= config_.num_parts(); ++p) {
    size_t n_sup = 1 + rng.UniformU64(4);
    for (size_t s = 0; s < n_sup; ++s) {
      int64_t suppkey = static_cast<int64_t>(skew.supplier.Draw(rng));
      DrawPartsupp(rng, static_cast<int64_t>(p), suppkey, partsupp_rows);
    }
  }
  partsupp_ = std::make_unique<Table>("partsupp", PartsuppSchema(),
                                      std::move(partsupps));

  // customer
  std::vector<Row> customers;
  RowSink customer_rows(customers, CustomerSchema().NumColumns());
  for (size_t i = 1; i <= config_.num_customers(); ++i) {
    DrawCustomer(rng, static_cast<int64_t>(i), customer_rows);
  }
  customer_ = std::make_unique<Table>("customer", CustomerSchema(),
                                      std::move(customers));

  // orders + lineitem (Zipf-skewed lineitems per order).
  std::vector<Row> orders;
  std::vector<Row> lineitems;
  RowSink order_rows(orders, OrdersSchema().NumColumns());
  RowSink lineitem_rows(lineitems, LineitemSchema().NumColumns());
  const ZipfSampler items_per_order(config_.max_lineitems_per_order, 0.8);
  for (size_t o = 1; o <= config_.num_orders; ++o) {
    DrawOrders(config_, rng, static_cast<int64_t>(o), order_rows);
    size_t n_items = items_per_order.Draw(rng);
    for (size_t l = 0; l < n_items; ++l) {
      DrawLineitem(skew, rng, static_cast<int64_t>(o), lineitem_rows);
    }
  }
  orders_ = std::make_unique<Table>("orders", OrdersSchema(),
                                    std::move(orders));
  lineitem_ = std::make_unique<Table>("lineitem", LineitemSchema(),
                                      std::move(lineitems));
}

rel::Catalog TpchDataset::catalog() const {
  return rel::Catalog{
      {"lineitem", lineitem_.get()}, {"orders", orders_.get()},
      {"customer", customer_.get()}, {"part", part_.get()},
      {"supplier", supplier_.get()}, {"partsupp", partsupp_.get()},
      {"nation", nation_.get()}};
}

const rel::Table* TpchDataset::FindTable(const std::string& name) const {
  for (const std::unique_ptr<rel::Table>* t :
       {&lineitem_, &orders_, &customer_, &part_, &supplier_, &partsupp_,
        &nation_}) {
    if ((*t)->name() == name) return t->get();
  }
  return nullptr;
}

const rel::Table& TpchDataset::table(const std::string& name) const {
  const rel::Table* t = FindTable(name);
  UPA_CHECK_MSG(t != nullptr, "unknown TPC-H table: " + name);
  return *t;
}

rel::Row TpchDataset::SampleRow(const std::string& name, Rng& rng) const {
  std::vector<Row> rows;
  RowSink sink(rows, table(name).schema().NumColumns());
  UPA_CHECK_MSG(DrawDomain(config_, name, 1, rng, sink),
                "SampleRow: unsupported table " + name);
  return std::move(rows.front());
}

Result<std::shared_ptr<const rel::ColumnarTable>> TpchDataset::SampleColumns(
    const std::string& name, size_t n, Rng& rng) const {
  const rel::Table* t = FindTable(name);
  if (t == nullptr) return Status::NotFound("unknown TPC-H table: " + name);
  rel::ColumnarTable::Builder columns(t->schema(), n);
  if (!DrawDomain(config_, name, n, rng, columns)) {
    return Status::Unsupported("table " + name +
                               " has no record domain to draw from");
  }
  return std::move(columns).Finish();
}

std::vector<rel::Row> TpchDataset::RowsWithout(
    const std::string& name, const std::vector<size_t>& indices) const {
  const rel::Table& t = table(name);
  std::vector<rel::Row> out;
  out.reserve(t.NumRows() - indices.size());
  size_t cursor = 0;
  for (size_t i = 0; i < t.NumRows(); ++i) {
    if (cursor < indices.size() && indices[cursor] == i) {
      ++cursor;
      continue;
    }
    out.push_back(t.rows()[i]);
  }
  return out;
}

}  // namespace upa::tpch
