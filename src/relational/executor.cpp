#include "relational/executor.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <list>
#include <mutex>
#include <optional>
#include <utility>
#include <variant>

#include "common/cancel.h"
#include "common/exact_sum.h"
#include "common/hash.h"
#include "engine/dataset.h"
#include "engine/shuffle.h"
#include "relational/columnar.h"

namespace upa::rel {
namespace {

constexpr size_t kNoProv = std::numeric_limits<size_t>::max();

/// Cache-key tags for the row engine. The columnar engine caches
/// differently-typed entries under its own tags (relational/columnar.cpp);
/// the block cache is type-erased, so the tags must never collide.
constexpr uint64_t kRowScanTag = 0x5ca9'0000ULL;
constexpr uint64_t kRowSubtreeTag = 0xcac4'e000ULL;

/// A row in flight, carrying the private-table row index it descends from
/// (kNoProv if it involves no private record). The evaluated plans scan the
/// private table at most once, so a single slot suffices — validated below.
struct ProvRow {
  Row row;
  size_t prov = kNoProv;
};

struct Rel {
  engine::Dataset<ProvRow> data;
  Schema schema;
};

class Evaluator {
 public:
  Evaluator(engine::ExecContext* ctx, const Catalog* catalog,
            const ExecOptions& options)
      : ctx_(ctx),
        catalog_(catalog),
        options_(options),
        engine_partitions_(ctx->config().default_partitions) {}

  Result<Rel> Eval(const PlanPtr& plan) {
    // Subtrees that never touch the private table are identical across a
    // release's passes (the provenance pass and the domain pass), so their
    // materialized result is cached — modelling Spark's shuffle-file reuse
    // and block cache, the effect behind the paper's Fig 4(b). Keyed by the
    // plan's structural fingerprint (which folds in table uids), so
    // distinct queries never collide — not even when a freed plan or table
    // address gets recycled by the allocator.
    const bool cacheable = options_.cache != nullptr &&
                           plan->kind != PlanKind::kScan &&
                           !options_.private_table.empty() &&
                           CountScansOf(plan, options_.private_table) == 0;
    if (cacheable) {
      uint64_t key = PlanFingerprint(plan, *catalog_) ^
                     Mix64(kRowSubtreeTag + engine_partitions_);
      std::shared_ptr<const CachedRel> hit =
          options_.cache->Get<CachedRel>(key);
      if (hit != nullptr) {
        return Rel{engine::Dataset<ProvRow>(ctx_, hit->partitions),
                   hit->schema};
      }
      Result<Rel> fresh = EvalUncached(plan);
      if (!fresh.ok()) return fresh;
      CachedRel entry;
      auto parts = std::make_shared<std::vector<std::vector<ProvRow>>>();
      parts->reserve(fresh.value().data.NumPartitions());
      for (size_t p = 0; p < fresh.value().data.NumPartitions(); ++p) {
        parts->push_back(fresh.value().data.partition(p));
      }
      entry.partitions = std::move(parts);
      entry.schema = fresh.value().schema;
      options_.cache->Put<CachedRel>(key, std::move(entry));
      return fresh;
    }
    return EvalUncached(plan);
  }

 private:
  struct CachedRel {
    std::shared_ptr<const std::vector<std::vector<ProvRow>>> partitions;
    Schema schema;
  };

  Result<Rel> EvalUncached(const PlanPtr& plan) {
    switch (plan->kind) {
      case PlanKind::kScan:
        return EvalScan(plan);
      case PlanKind::kFilter:
        return EvalFilter(plan);
      case PlanKind::kJoin:
        return EvalJoin(plan);
      case PlanKind::kAggregate:
        return Status::InvalidArgument(
            "Aggregate is only supported at the plan root");
    }
    return Status::Internal("unknown plan kind");
  }
  Result<Rel> EvalScan(const PlanPtr& plan) {
    const bool is_private =
        !options_.private_table.empty() && plan->table == options_.private_table;

    auto it = catalog_->find(plan->table);
    if (it == catalog_->end()) {
      return Status::NotFound("unknown table: " + plan->table);
    }
    const Table* table = it->second;

    if (!is_private) {
      return Rel{ScanNonPrivate(table), table->schema()};
    }

    // Base rows of the private table: the catalog's, or the replacement's
    // read back out of its columns. include_rows (validated by Execute)
    // selects from the base (the one provenance pass scans all of it);
    // provenance is the row's index within the base.
    const ColumnarTable* replaced = options_.replace_private_rows;
    auto base_row = [&](size_t i) {
      return replaced != nullptr ? replaced->RowAt(i) : table->rows()[i];
    };
    std::vector<ProvRow> rows;
    if (options_.include_rows != nullptr) {
      rows.reserve(options_.include_rows->size());
      for (size_t idx : *options_.include_rows) {
        rows.push_back({base_row(idx), idx});
      }
    } else {
      const size_t n =
          replaced != nullptr ? replaced->num_rows() : table->NumRows();
      rows.reserve(n);
      for (size_t i = 0; i < n; ++i) rows.push_back({base_row(i), i});
    }
    return Rel{engine::Dataset<ProvRow>::FromVector(ctx_, std::move(rows),
                                                    engine_partitions_),
               table->schema()};
  }

  /// Non-private scans are immutable across a release's passes, so they
  /// are cached (keyed by table uid + parallelism) when the caller passes a
  /// cache; the domain pass then hits Spark-style memory cache,
  /// reproducing the paper's Fig 4(b) effect.
  engine::Dataset<ProvRow> ScanNonPrivate(const Table* table) {
    using Partitions = std::vector<std::vector<ProvRow>>;
    auto materialize = [&] {
      std::vector<ProvRow> rows;
      rows.reserve(table->NumRows());
      for (const Row& row : table->rows()) rows.push_back({row, kNoProv});
      return engine::Dataset<ProvRow>::FromVector(ctx_, std::move(rows),
                                                  engine_partitions_);
    };
    if (options_.cache == nullptr) return materialize();

    uint64_t key = Mix64(table->uid()) ^ Mix64(kRowScanTag + engine_partitions_);
    std::shared_ptr<const Partitions> cached =
        options_.cache->GetOrCompute<Partitions>(key, [&] {
          engine::Dataset<ProvRow> ds = materialize();
          Partitions parts(ds.NumPartitions());
          for (size_t p = 0; p < ds.NumPartitions(); ++p) {
            parts[p] = ds.partition(p);
          }
          return parts;
        });
    return engine::Dataset<ProvRow>(ctx_, std::move(cached));
  }

  Result<Rel> EvalFilter(const PlanPtr& plan) {
    Result<Rel> child = Eval(plan->left);
    if (!child.ok()) return child.status();
    const Schema& schema = child.value().schema;
    if (!ExprColumnsExist(plan->predicate, schema)) {
      return Status::InvalidArgument("filter references unknown column in " +
                                     plan->predicate->ToString());
    }
    auto pred = BindPredicate(plan->predicate, schema);
    return Rel{
        child.value().data.Filter([pred](const ProvRow& r) { return pred(r.row); }),
        schema};
  }

  Result<Rel> EvalJoin(const PlanPtr& plan) {
    Result<Rel> left = Eval(plan->left);
    if (!left.ok()) return left.status();
    Result<Rel> right = Eval(plan->right);
    if (!right.ok()) return right.status();

    const Schema& ls = left.value().schema;
    const Schema& rs = right.value().schema;
    auto lk = ls.Find(plan->left_key);
    auto rk = rs.Find(plan->right_key);
    if (!lk || !rk) {
      return Status::InvalidArgument("join key not found: " + plan->left_key +
                                     "=" + plan->right_key);
    }
    size_t li = *lk, ri = *rk;
    auto all_int = [](const engine::Dataset<ProvRow>& data, size_t col) {
      for (size_t p = 0; p < data.NumPartitions(); ++p) {
        for (const ProvRow& r : data.partition(p)) {
          if (TypeOf(r.row[col]) != ValueType::kInt) return false;
        }
      }
      return true;
    };
    if (!all_int(left.value().data, li)) {
      return NonIntegerJoinKey(plan->left_key);
    }
    if (!all_int(right.value().data, ri)) {
      return NonIntegerJoinKey(plan->right_key);
    }

    auto keyed_left = left.value().data.Map([li](const ProvRow& r) {
      return std::pair<int64_t, ProvRow>{AsInt(r.row[li]), r};
    });
    auto keyed_right = right.value().data.Map([ri](const ProvRow& r) {
      return std::pair<int64_t, ProvRow>{AsInt(r.row[ri]), r};
    });
    auto joined =
        engine::HashJoin(keyed_left, keyed_right, engine_partitions_);

    auto combined = joined.Map(
        [](const std::pair<int64_t, std::pair<ProvRow, ProvRow>>& kv) {
          const ProvRow& a = kv.second.first;
          const ProvRow& b = kv.second.second;
          ProvRow out;
          out.row.reserve(a.row.size() + b.row.size());
          out.row.insert(out.row.end(), a.row.begin(), a.row.end());
          out.row.insert(out.row.end(), b.row.begin(), b.row.end());
          // At most one side carries private provenance (single private
          // scan, validated in Execute).
          out.prov = a.prov != kNoProv ? a.prov : b.prov;
          return out;
        });
    return Rel{combined, Schema::Concat(ls, rs)};
  }

  engine::ExecContext* ctx_;
  const Catalog* catalog_;
  const ExecOptions& options_;
  const size_t engine_partitions_;
};

/// Checks a list of private-row indices (include_rows or sample_rows):
/// sorted, distinct and within the private table's base rows.
Status ValidateRowList(const Catalog& catalog, const ExecOptions& options,
                       const std::vector<size_t>& rows,
                       const std::string& what) {
  if (std::adjacent_find(rows.begin(), rows.end(),
                         std::greater_equal<size_t>()) != rows.end()) {
    return Status::InvalidArgument(what + " must be sorted and distinct");
  }
  // An unknown private table is the engines' NotFound to report.
  auto it = catalog.find(options.private_table);
  const size_t base_rows = options.replace_private_rows != nullptr
                               ? options.replace_private_rows->num_rows()
                           : it != catalog.end() ? it->second->NumRows()
                                                 : SIZE_MAX;
  if (!rows.empty() && rows.back() >= base_rows) {
    return Status::InvalidArgument(what + " out of range");
  }
  return Status::Ok();
}

/// Checks the provenance options against each other and the private
/// table's base rows (InvalidArgument on any misuse).
Status ValidateOptions(const Catalog& catalog, const ExecOptions& options) {
  if (options.replace_private_rows != nullptr) {
    auto it = catalog.find(options.private_table);
    const std::vector<ColumnDef>& got =
        options.replace_private_rows->schema().columns();
    if (it != catalog.end() &&
        !std::equal(got.begin(), got.end(),
                    it->second->schema().columns().begin(),
                    it->second->schema().columns().end(),
                    [](const ColumnDef& a, const ColumnDef& b) {
                      return a.name == b.name && a.type == b.type;
                    })) {
      return Status::InvalidArgument(
          "replace_private_rows does not have the columns of " +
          options.private_table);
    }
  }
  if (options.include_rows != nullptr) {
    UPA_RETURN_IF_ERROR(
        ValidateRowList(catalog, options, *options.include_rows,
                        "include_rows"));
  }
  if (options.sample_rows == nullptr) {
    if (options.partitions > 0) {
      return Status::InvalidArgument("partitions requires sample_rows");
    }
    return Status::Ok();
  }
  if (options.include_rows != nullptr) {
    return Status::InvalidArgument(
        "sample_rows cannot be combined with include_rows");
  }
  if (options.private_table.empty()) {
    return Status::InvalidArgument("sample_rows requires a private table");
  }
  if (options.partitions == 0) {
    return Status::InvalidArgument("sample_rows requires partitions > 0");
  }
  return ValidateRowList(catalog, options, *options.sample_rows,
                         "sample_rows");
}

/// A run without provenance: the plain scalar aggregate. The sum behind
/// Count/Sum/Avg is exact (ExactSum), so the result does not depend on row
/// order — the columnar engine computes the bit-identical value.
Result<ExecResult> ExecutePlain(
    AggKind agg, const engine::Dataset<ProvRow>& data,
    const std::function<double(const Row&)>& weight_of) {
  ExecResult result;
  ExactSum sum;
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  for (size_t p = 0; p < data.NumPartitions(); ++p) {
    for (const ProvRow& r : data.partition(p)) {
      double w = weight_of(r.row);
      sum.Add(w);
      mn = std::min(mn, w);
      mx = std::max(mx, w);
      ++result.result_rows;
    }
  }
  if (agg == AggKind::kCount || agg == AggKind::kSum) {
    result.output = sum.Round();
    return result;
  }
  if (result.result_rows == 0) {
    return Status::FailedPrecondition(
        "Avg/Min/Max aggregate over an empty relation");
  }
  switch (agg) {
    case AggKind::kAvg:
      result.output = sum.Round() / static_cast<double>(result.result_rows);
      break;
    case AggKind::kMin:
      result.output = mn;
      break;
    default:  // kMax
      result.output = mx;
      break;
  }
  return result;
}

/// The row oracle: evaluates the plan row at a time, then folds the
/// aggregate (the one provenance pass through a real partition shuffle).
Result<ExecResult> ExecuteRowOracle(engine::ExecContext* ctx,
                                    const Catalog* catalog, const PlanPtr& plan,
                                    const ExecOptions& options) {
  Evaluator evaluator(ctx, catalog, options);
  Result<Rel> rel = evaluator.Eval(plan->left);
  if (!rel.ok()) return rel.status();

  const Schema& schema = rel.value().schema;
  UPA_RETURN_IF_ERROR(CheckAggregate(plan, schema, options));
  std::function<double(const Row&)> weight_of =
      plan->agg == AggKind::kCount
          ? [](const Row&) { return 1.0; }
          : BindNumeric(plan->agg_expr, schema);
  if (options.sample_rows == nullptr) {
    return ExecutePlain(plan->agg, rel.value().data, weight_of);
  }

  // Weighted provenance pairs. Every accumulation below goes through
  // ExactSum, whose result is independent of addition order — so the
  // output, the sampled records' slots and the per-partition outputs are
  // bit-identical across engine partitionings AND bit-identical to the
  // columnar engine (the differential harness asserts both).
  auto weighted = rel.value().data.Map([weight_of](const ProvRow& r) {
    return std::pair<double, size_t>{weight_of(r.row), r.prov};
  });

  // The one provenance pass (Execute checked that the private table is
  // scanned, so every row has provenance): sampled rows go to their slots,
  // every other row through a *real* record shuffle to its partition. The
  // RANGE ENFORCER "exchanges the data records which belong to the same
  // partition between computers" (paper §VI-D), which is where the
  // local-computation queries' overhead comes from.
  SamplePass sample(*options.sample_rows, options.partitions);
  size_t result_rows = 0;
  for (size_t p = 0; p < weighted.NumPartitions(); ++p) {
    for (const auto& [w, prov] : weighted.partition(p)) {
      ++result_rows;
      if (sample.Contains(prov)) sample.Add(prov, w);
    }
  }
  // Map-side projection before the exchange (Spark prunes columns the
  // downstream aggregation doesn't need): only (partition, weight)
  // crosses the wire.
  const size_t parts = options.partitions;
  auto keyed = weighted
                   .Filter([&sample](const std::pair<double, size_t>& wp) {
                     return !sample.Contains(wp.second);
                   })
                   .Map([parts](const std::pair<double, size_t>& wp) {
                     return std::pair<size_t, double>{wp.second % parts,
                                                      wp.first};
                   });
  auto shuffled = engine::ShuffleByKey(keyed, parts);
  std::vector<ExactSum> pid_sums(parts);
  for (size_t p = 0; p < shuffled.NumPartitions(); ++p) {
    for (const auto& [pid, w] : shuffled.partition(p)) {
      pid_sums[pid].Add(w);
    }
  }
  return sample.Finish(pid_sums, result_rows);
}

/// Heap bytes a plan pins, roughly: nodes, names, literals and IN sets.
size_t ExprBytes(const ExprPtr& e) {
  if (e == nullptr) return 0;
  size_t bytes = sizeof(Expr) + e->column_name().size();
  auto value_bytes = [](const Value& v) {
    const std::string* s = std::get_if<std::string>(&v);
    return sizeof(Value) + (s != nullptr ? s->size() : 0);
  };
  bytes += value_bytes(e->literal());
  for (const Value& v : e->set()) bytes += value_bytes(v);
  return bytes + ExprBytes(e->lhs()) + ExprBytes(e->rhs());
}

size_t PlanBytes(const PlanPtr& p) {
  if (p == nullptr) return 0;
  return sizeof(PlanNode) + p->table.size() + p->left_key.size() +
         p->right_key.size() + ExprBytes(p->predicate) +
         ExprBytes(p->agg_expr) + PlanBytes(p->left) + PlanBytes(p->right);
}

/// Appends the uid of every table `plan` scans, in plan order; false when
/// one is missing from the catalog (the engine reports it).
bool CollectScanUids(const PlanPtr& plan, const Catalog& catalog,
                     std::vector<uint64_t>* uids) {
  if (plan == nullptr) return true;
  if (plan->kind == PlanKind::kScan) {
    auto it = catalog.find(plan->table);
    if (it == catalog.end() || it->second == nullptr) return false;
    uids->push_back(it->second->uid());
    return true;
  }
  return CollectScanUids(plan->left, catalog, uids) &&
         CollectScanUids(plan->right, catalog, uids);
}

}  // namespace

/// The cross-release S′ memo (DESIGN §5). Per one-pass plan it keeps the
/// exact sum x_j of every private row's weight in each enforcer partition
/// j, the rounded total and the surviving row count, none of which depend
/// on the sample. Tables are immutable and new data gets a new uid, so an
/// entry stays valid for as long as its key can match. Bounded: at most
/// kMemoCapacity entries, each of at most kMaxPartitions fixed-size
/// partition sums (~560 bytes each) and a plan of at most kMaxPlanBytes:
/// 64 × (8 × 560 B + 8 KiB), under 1 MiB in all.
class SPrimeMemo {
 public:
  static constexpr size_t kMaxPartitions = 8;
  static constexpr size_t kMaxPlanBytes = 8192;

  struct Key {
    uint64_t hash = 0;  // of all of the below
    PlanPtr plan;       // compared structurally (PlanEquals)
    std::vector<uint64_t> uids;  // every scanned table, in plan order
    std::string private_table;
    size_t partitions = 0;

    bool operator==(const Key& o) const {
      return hash == o.hash && partitions == o.partitions &&
             uids == o.uids && private_table == o.private_table &&
             PlanEquals(plan, o.plan);
    }
  };

  struct Value {
    std::vector<ExactSum> totals;  // x_j
    double output = 0.0;
    size_t result_rows = 0;
  };

  /// The key of a one pass, or nullopt when the memo declines it: a table
  /// missing from the catalog, an entry too big to keep, or a sample of
  /// more than half the private table, where a hit would scan most of the
  /// rows anyway and the full scan's dense kernels are faster.
  static std::optional<Key> KeyFor(const PlanPtr& plan, const Catalog& catalog,
                                   const ExecOptions& options) {
    auto priv = catalog.find(options.private_table);
    Key key;
    if (priv == catalog.end() || priv->second == nullptr ||
        2 * options.sample_rows->size() > priv->second->NumRows() ||
        options.partitions > kMaxPartitions ||
        PlanBytes(plan) > kMaxPlanBytes ||
        !CollectScanUids(plan, catalog, &key.uids)) {
      return std::nullopt;
    }
    key.plan = plan;
    key.private_table = options.private_table;
    key.partitions = options.partitions;
    key.hash = HashCombine(
        HashCombine(PlanFingerprint(plan, catalog), Fnv1a(key.private_table)),
        Mix64(key.partitions));
    return key;
  }

  std::shared_ptr<const Value> Find(const Key& key) {
    std::lock_guard lock(mu_);
    return MoveToFront(key) ? lru_.front().value : nullptr;
  }

  void Insert(Key key, Value value) {
    auto shared = std::make_shared<const Value>(std::move(value));
    std::lock_guard lock(mu_);
    if (MoveToFront(key)) {
      lru_.front().value = std::move(shared);
      return;
    }
    lru_.push_front({std::move(key), std::move(shared)});
    if (lru_.size() > PlanExecutor::kMemoCapacity) lru_.pop_back();
  }

  size_t size() const {
    std::lock_guard lock(mu_);
    return lru_.size();
  }

  /// Completes a pass over the sampled rows alone: partition j's output is
  /// Round(x_j ⊖ sampled rows of j), computed exactly (beyond DBL_MAX too),
  /// and the total and row count are the remembered ones. When every
  /// surviving row was sampled, nothing remains and every output is the
  /// empty sum, +0.0. False when a sampled row's weight is infinite or NaN,
  /// or when a remainder is an exact zero while rows remain, whose sign
  /// depends on those rows (-0.0 only when every one of them weighs -0.0):
  /// the full pass must decide.
  static bool Complete(const Value& memo, ExecResult& r) {
    std::vector<double> outputs(memo.totals.size(), 0.0);
    const bool rows_remain = r.result_rows != memo.result_rows;
    for (size_t j = 0; j < outputs.size() && rows_remain; ++j) {
      ExactSum rest = memo.totals[j];
      rest.Subtract(r.partition_totals[j]);
      outputs[j] = rest.Round();
      if (!rest.Finite() || outputs[j] == 0.0) return false;
    }
    r.partition_outputs = std::move(outputs);
    r.partition_totals = memo.totals;
    r.output = memo.output;
    r.result_rows = memo.result_rows;
    return true;
  }

 private:
  struct Entry {
    Key key;
    std::shared_ptr<const Value> value;
  };

  /// Moves `key`'s entry to the front; false when there is none. mu_ held.
  bool MoveToFront(const Key& key) {
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (it->key == key) {
        lru_.splice(lru_.begin(), lru_, it);
        return true;
      }
    }
    return false;
  }

  mutable std::mutex mu_;
  std::list<Entry> lru_;  // most recently used first
};

PlanExecutor::PlanExecutor(engine::ExecContext* ctx, const Catalog* catalog)
    : ctx_(ctx), catalog_(catalog), memo_(std::make_shared<SPrimeMemo>()) {
  UPA_CHECK(ctx_ != nullptr && catalog_ != nullptr);
}

size_t PlanExecutor::MemoEntries() const { return memo_->size(); }

Result<ExecResult> PlanExecutor::ExecuteOnePass(
    const PlanPtr& plan, const ExecOptions& options) const {
  std::optional<SPrimeMemo::Key> key =
      SPrimeMemo::KeyFor(plan, *catalog_, options);
  if (!key.has_value()) return ExecuteColumnar(ctx_, catalog_, plan, options);
  if (std::shared_ptr<const SPrimeMemo::Value> memo = memo_->Find(*key)) {
    // The same engine over the sampled rows only: each surviving row lands
    // in its slot, and partition_totals hold the sample's share of x_j.
    ExecOptions sampled = options;
    sampled.include_rows = options.sample_rows;
    Result<ExecResult> r = ExecuteColumnar(ctx_, catalog_, plan, sampled);
    if (!r.ok()) return r;
    if (SPrimeMemo::Complete(*memo, r.value())) {
      ctx_->metrics().AddMemoHit();
      return r;
    }
  }
  ctx_->metrics().AddMemoMiss();
  // Only a finished pass fills the memo: a pass whose cancel token tripped
  // fails in FinishAggregate instead of reporting a partial fold.
  Result<ExecResult> r = ExecuteColumnar(ctx_, catalog_, plan, options);
  if (!r.ok()) return r;
  const std::vector<ExactSum>& totals = r.value().partition_totals;
  if (std::all_of(totals.begin(), totals.end(),
                  [](const ExactSum& t) { return t.Finite(); })) {
    memo_->Insert(std::move(*key),
                  {totals, r.value().output, r.value().result_rows});
  }
  return r;
}

Result<ExecResult> PlanExecutor::Execute(const PlanPtr& plan,
                                         const ExecOptions& options) const {
  if (plan == nullptr || plan->kind != PlanKind::kAggregate) {
    return Status::InvalidArgument("plan root must be an Aggregate");
  }
  UPA_RETURN_IF_ERROR(ValidateOptions(*catalog_, options));
  const bool needs_prov = !options.private_table.empty();
  if (needs_prov) {
    size_t scans = CountScansOf(plan, options.private_table);
    if (scans == 0) {
      return Status::InvalidArgument("private table not scanned by plan: " +
                                     options.private_table);
    }
    if (scans > 1) {
      return Status::Unsupported(
          "private table scanned more than once (self-join provenance is "
          "not supported): " +
          options.private_table);
    }
  }

  if (options.engine == ExecEngine::kColumnar) {
    if (options.sample_rows != nullptr &&
        options.replace_private_rows == nullptr) {
      return ExecuteOnePass(plan, options);
    }
    return ExecuteColumnar(ctx_, catalog_, plan, options);
  }
  Result<ExecResult> r = ExecuteRowOracle(ctx_, catalog_, plan, options);
  // The pool's helpers shed the chunks a tripped token catches, so a run
  // that saw the trip holds a partial fold: never report it.
  if (r.ok()) UPA_RETURN_IF_ERROR(CancelScope::CheckCurrent());
  return r;
}

}  // namespace upa::rel
