#include "relational/columnar.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>

#include "common/cancel.h"
#include "common/exact_sum.h"
#include "common/failpoint.h"
#include "common/hash.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "relational/fused.h"
#include "relational/kernels.h"

namespace upa::rel {

// ---------------------------------------------------------------------------
// ColumnarTable
// ---------------------------------------------------------------------------

std::shared_ptr<const ColumnarTable> ColumnarTable::Build(
    Schema schema, const std::vector<Row>& rows) {
  // No Status channel here (delay/abort actions only; see failpoint.h).
  UPA_FAILPOINT_HIT("columnar/build");
  const size_t ncols = schema.NumColumns();
  for (const Row& row : rows) {
    UPA_CHECK_MSG(row.size() == ncols, "row arity mismatch in columnar build");
  }
  Builder builder(std::move(schema), rows.size());
  for (const Row& row : rows) {
    for (const Value& cell : row) builder.Cell(cell);
  }
  return std::move(builder).Finish();
}

Row ColumnarTable::RowAt(size_t i) const {
  Row row;
  row.reserve(columns_.size());
  for (const Column& col : columns_) {
    switch (col.type) {
      case ValueType::kInt: row.emplace_back(col.ints[i]); break;
      case ValueType::kDouble: row.emplace_back(col.doubles[i]); break;
      case ValueType::kString:
        row.emplace_back((*col.dict)[col.codes[i]]);
        break;
    }
  }
  return row;
}

ColumnarTable::Builder::Builder(Schema schema, size_t expected_rows)
    : schema_(std::move(schema)), drafts_(schema_.NumColumns()) {
  for (size_t c = 0; c < drafts_.size(); ++c) {
    switch (schema_.column(c).type) {
      case ValueType::kInt: drafts_[c].ints.reserve(expected_rows); break;
      case ValueType::kDouble: drafts_[c].doubles.reserve(expected_rows); break;
      case ValueType::kString: drafts_[c].strings.reserve(expected_rows); break;
    }
  }
}

void ColumnarTable::Builder::Cell(const Value& v) {
  switch (TypeOf(v)) {
    case ValueType::kInt: Int(std::get<int64_t>(v)); break;
    case ValueType::kDouble: Double(std::get<double>(v)); break;
    case ValueType::kString: String(std::get<std::string>(v)); break;
  }
}

void ColumnarTable::Builder::Draft::AddInt(int64_t v) {
  has_numeric = true;
  if (is_double) {
    doubles.push_back(static_cast<double>(v));  // == AsNumeric
  } else {
    ints.push_back(v);
  }
}

void ColumnarTable::Builder::Draft::AddDouble(double v) {
  has_numeric = true;
  if (!is_double) {
    is_double = true;
    doubles.reserve(std::max(ints.capacity(), ints.size() + 1));
    for (int64_t i : ints) doubles.push_back(static_cast<double>(i));
    ints = {};
  }
  doubles.push_back(v);
}

std::shared_ptr<const ColumnarTable> ColumnarTable::Builder::Finish() && {
  const size_t ncols = drafts_.size();
  UPA_CHECK_MSG(ncols == 0 ? cells_ == 0 : cells_ % ncols == 0,
                "row arity mismatch in columnar build");
  const size_t num_rows = ncols == 0 ? 0 : cells_ / ncols;
  UPA_CHECK_MSG(num_rows < std::numeric_limits<uint32_t>::max(),
                "table too large for columnar row ids");
  auto ct = std::shared_ptr<ColumnarTable>(new ColumnarTable());
  ct->schema_ = std::move(schema_);
  ct->num_rows_ = num_rows;

  ct->columns_.resize(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    Column& col = ct->columns_[c];
    Draft& draft = drafts_[c];
    if (num_rows == 0) {
      // No cells to inspect: use the declared type (comparisons against an
      // empty column never execute, but compilation needs a dictionary).
      col.type = ct->schema_.column(c).type;
      if (col.type == ValueType::kString) {
        col.dict = std::make_shared<const std::vector<std::string>>();
      }
      continue;
    }
    // Columns are typed by their *actual* cells, not the declared schema
    // type: an all-int64 column stays an int column even when declared
    // double, so strict accessors (AsInt join keys) behave like the row
    // oracle. A column mixing strings with numerics has no single physical
    // type — the row store tolerates that lazily, columnar storage cannot.
    UPA_CHECK_MSG(draft.strings.empty() || !draft.has_numeric,
                  "column mixes string and numeric cells: " +
                      ct->schema_.column(c).name);
    if (!draft.strings.empty()) {
      col.type = ValueType::kString;
      // The sorted, distinct cells are the dictionary; a cell's code is its
      // rank among them, so code order == string order.
      std::vector<std::string_view> sorted = draft.strings;
      std::sort(sorted.begin(), sorted.end());
      sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
      col.codes.reserve(num_rows);
      for (std::string_view cell : draft.strings) {
        col.codes.push_back(static_cast<uint32_t>(
            std::lower_bound(sorted.begin(), sorted.end(), cell) -
            sorted.begin()));
      }
      col.dict = std::make_shared<const std::vector<std::string>>(
          sorted.begin(), sorted.end());
    } else if (draft.is_double) {
      col.type = ValueType::kDouble;
      col.doubles = std::move(draft.doubles);
    } else {
      col.type = ValueType::kInt;
      col.ints = std::move(draft.ints);
    }
  }

  auto ident = std::make_shared<SelVector>(num_rows);
  std::iota(ident->begin(), ident->end(), 0u);
  ct->identity_ = std::move(ident);
  return ct;
}

// ---------------------------------------------------------------------------
// Vectorized evaluation
// ---------------------------------------------------------------------------

void MorselRun(engine::ExecContext* ctx, const std::string& phase, size_t n,
               size_t grain, const std::function<void(size_t, size_t)>& fn) {
  ThreadPool::MorselTimings timings;
  const size_t morsels = ctx->pool().ParallelForMorsels(n, grain, fn, &timings);
  ctx->metrics().RecordMorselRun(phase, timings.seconds);
  ctx->metrics().AddPhaseTasks(phase, morsels);
  ctx->metrics().AddTasks(morsels);
}

namespace {

/// Cache tags. Distinct from the row engine's key tags: the block cache is
/// type-erased, so the same key must never map to differently-typed entries.
constexpr uint64_t kColScanTag = 0xc015'ca90ULL;
constexpr uint64_t kColSubtreeTag = 0xc01c'ac40ULL;

/// One input of a relation in flight: a columnar table plus the row-index
/// vector mapping relation positions [0, num_rows) to physical rows. This
/// is the late-materialization representation — operators re-index, they
/// never copy cell data.
struct ColSource {
  std::shared_ptr<const ColumnarTable> table;
  std::shared_ptr<const SelVector> row_ids;
};

struct ColRel {
  std::vector<ColSource> sources;
  /// Schema position → (source index, column index within the source).
  std::vector<std::pair<uint32_t, uint32_t>> col_map;
  Schema schema;
  size_t num_rows = 0;
  /// Index into `sources` of the private table's scan, or -1. Its row-index
  /// vector *is* the provenance column: entry p is the private base-row
  /// index that relation row p descends from.
  int private_source = -1;
};

std::vector<const Column*> PhysicalColumns(const ColRel& rel) {
  std::vector<const Column*> cols(rel.col_map.size());
  for (size_t i = 0; i < rel.col_map.size(); ++i) {
    cols[i] =
        &rel.sources[rel.col_map[i].first].table->column(rel.col_map[i].second);
  }
  return cols;
}

BatchInput BindColumns(const ColRel& rel,
                       const std::vector<const Column*>& cols) {
  BatchInput in(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    in[i] = {cols[i], rel.sources[rel.col_map[i].first].row_ids->data()};
  }
  return in;
}

class ColumnarEvaluator {
 public:
  ColumnarEvaluator(engine::ExecContext* ctx, const Catalog* catalog,
                    const ExecOptions& options)
      : ctx_(ctx),
        catalog_(catalog),
        options_(options),
        engine_partitions_(ctx->config().default_partitions) {}

  Result<ColRel> Eval(const PlanPtr& plan) {
    // Fully-public subtrees are identical across a release's passes, so
    // their (cheap, index-only) relation state is cached — same policy as
    // the row engine, keyed structurally so distinct plans never collide.
    const bool cacheable = options_.cache != nullptr &&
                           plan->kind != PlanKind::kScan &&
                           !options_.private_table.empty() &&
                           CountScansOf(plan, options_.private_table) == 0;
    if (cacheable) {
      uint64_t key = PlanFingerprint(plan, *catalog_) ^
                     Mix64(kColSubtreeTag + engine_partitions_);
      std::shared_ptr<const ColRel> hit = options_.cache->Get<ColRel>(key);
      if (hit != nullptr) return *hit;
      Result<ColRel> fresh = EvalUncached(plan);
      if (!fresh.ok()) return fresh;
      options_.cache->Put<ColRel>(key, fresh.value());
      return fresh;
    }
    return EvalUncached(plan);
  }

 private:
  Result<ColRel> EvalUncached(const PlanPtr& plan) {
    // Between plan nodes is the coarse cancellation boundary; within a
    // node, the batch-kernel ParallelFor polls at chunk granularity.
    UPA_RETURN_IF_ERROR(CancelScope::CheckCurrent());
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

  Result<ColRel> EvalScan(const PlanPtr& plan) {
    Result<ScanBinding> bindr =
        BindScanSource(ctx_, catalog_, plan->table, options_);
    if (!bindr.ok()) return bindr.status();
    ScanBinding bind = std::move(bindr).value();

    ColRel rel;
    rel.schema = bind.table->schema();
    if (bind.is_private) rel.private_source = 0;
    rel.num_rows = bind.row_ids->size();
    rel.sources.push_back({std::move(bind.table), std::move(bind.row_ids)});
    rel.col_map.resize(rel.schema.NumColumns());
    for (size_t c = 0; c < rel.schema.NumColumns(); ++c) {
      rel.col_map[c] = {0, static_cast<uint32_t>(c)};
    }
    return rel;
  }

  Result<ColRel> EvalFilter(const PlanPtr& plan) {
    Result<ColRel> childr = Eval(plan->left);
    if (!childr.ok()) return childr.status();
    ColRel child = std::move(childr.value());
    if (!ExprColumnsExist(plan->predicate, child.schema)) {
      return Status::InvalidArgument("filter references unknown column in " +
                                     plan->predicate->ToString());
    }
    std::vector<const Column*> cols = PhysicalColumns(child);
    const CompiledExpr pred = CompileExpr(plan->predicate, child.schema, cols);
    const BatchInput in = BindColumns(child, cols);

    const size_t n = child.num_rows;
    SelVector all(n);
    std::iota(all.begin(), all.end(), 0u);
    const size_t nb = NumBatches(n);
    std::vector<SelVector> hits(nb);
    MorselRun(ctx_, "columnar/filter", nb, 0, [&](size_t b0, size_t b1) {
      for (size_t b = b0; b < b1; ++b) {
        const size_t begin = b * kBatch, end = std::min(n, begin + kBatch);
        FilterKernel(pred, in, all.data() + begin, end - begin, hits[b]);
      }
    });
    ctx_->metrics().AddKernelBatches(nb);
    ctx_->metrics().AddKernelRows(n);
    return Reindex(std::move(child), hits);
  }

  /// Replaces every source's row-index vector with its gather through the
  /// per-batch selections (concatenated in batch order).
  ColRel Reindex(ColRel rel, const std::vector<SelVector>& hits) {
    const size_t nb = hits.size();
    std::vector<size_t> offset(nb + 1, 0);
    for (size_t b = 0; b < nb; ++b) offset[b + 1] = offset[b] + hits[b].size();
    const size_t total = offset[nb];
    std::vector<std::shared_ptr<SelVector>> fresh(rel.sources.size());
    for (auto& f : fresh) f = std::make_shared<SelVector>(total);
    MorselRun(ctx_, "columnar/reindex", nb, 0, [&](size_t b0, size_t b1) {
      for (size_t b = b0; b < b1; ++b) {
        const SelVector& h = hits[b];
        for (size_t s = 0; s < rel.sources.size(); ++s) {
          const uint32_t* old_ids = rel.sources[s].row_ids->data();
          uint32_t* out = fresh[s]->data() + offset[b];
          for (size_t i = 0; i < h.size(); ++i) out[i] = old_ids[h[i]];
        }
      }
    });
    for (size_t s = 0; s < rel.sources.size(); ++s) {
      rel.sources[s].row_ids = std::move(fresh[s]);
    }
    rel.num_rows = total;
    return rel;
  }

  /// Join-key column as a dense int64 array (one entry per relation row).
  Result<std::vector<int64_t>> KeyColumn(const ColRel& rel, size_t pos,
                                         const std::string& name) {
    const auto& [s, c] = rel.col_map[pos];
    const Column& col = rel.sources[s].table->column(c);
    const uint32_t* ids = rel.sources[s].row_ids->data();
    const size_t n = rel.num_rows;
    // The row oracle keys joins through strict AsInt per row.
    if (n > 0 && col.type != ValueType::kInt) return NonIntegerJoinKey(name);
    std::vector<int64_t> keys(n);
    const int64_t* vals = col.ints.data();
    MorselRun(ctx_, "columnar/join_key", n, kBatch,
              [&](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) keys[i] = vals[ids[i]];
              });
    return keys;
  }

  Result<ColRel> EvalJoin(const PlanPtr& plan) {
    Result<ColRel> lr = Eval(plan->left);
    if (!lr.ok()) return lr.status();
    Result<ColRel> rr = Eval(plan->right);
    if (!rr.ok()) return rr.status();
    ColRel left = std::move(lr.value());
    ColRel right = std::move(rr.value());

    auto lk = left.schema.Find(plan->left_key);
    auto rk = right.schema.Find(plan->right_key);
    if (!lk || !rk) {
      return Status::InvalidArgument("join key not found: " + plan->left_key +
                                     "=" + plan->right_key);
    }
    Result<std::vector<int64_t>> lkeys = KeyColumn(left, *lk, plan->left_key);
    if (!lkeys.ok()) return lkeys.status();
    Result<std::vector<int64_t>> rkeys =
        KeyColumn(right, *rk, plan->right_key);
    if (!rkeys.ok()) return rkeys.status();

    // Build a JoinTable from the hinted side (set by the cost-based
    // optimizer from estimated cardinalities) or, absent a hint, from the
    // smaller materialized side; probe with the other in batches. Output
    // order is deterministic (probe order, chain order) — and irrelevant to
    // results anyway, since every downstream aggregate is exact and
    // order-independent.
    const bool build_left =
        plan->build_side == BuildSide::kAuto
            ? left.num_rows <= right.num_rows
            : plan->build_side == BuildSide::kLeft;
    const std::vector<int64_t>& bkeys =
        build_left ? lkeys.value() : rkeys.value();
    const std::vector<int64_t>& pkeys =
        build_left ? rkeys.value() : lkeys.value();
    const size_t nprobe = pkeys.size();

    // Per probe batch: matching (build position, probe position) pairs.
    const size_t nb = NumBatches(nprobe);
    std::vector<std::pair<SelVector, SelVector>> pairs(nb);
    if (!bkeys.empty() && nprobe > 0) {
      const JoinTable table(bkeys);
      MorselRun(ctx_, "columnar/join_probe", nb, 0, [&](size_t b0, size_t b1) {
        for (size_t b = b0; b < b1; ++b) {
          auto& [bpos, ppos] = pairs[b];
          size_t begin = b * kBatch, end = std::min(nprobe, begin + kBatch);
          for (size_t j = begin; j < end; ++j) {
            for (uint32_t i = table.Find(pkeys[j]); i != JoinTable::kEnd;
                 i = table.Next(i)) {
              bpos.push_back(i);
              ppos.push_back(static_cast<uint32_t>(j));
            }
          }
        }
      });
    }
    ctx_->metrics().AddKernelBatches(nb);
    ctx_->metrics().AddKernelRows(nprobe);
    // In the distributed plan this engine models, a join exchanges both
    // sides (the row engine's HashJoin shuffles each input); count the same
    // rounds/records so overhead attribution stays engine-independent.
    ctx_->metrics().AddShuffleRound();
    ctx_->metrics().AddShuffleRecords(left.num_rows);
    ctx_->metrics().AddShuffleRound();
    ctx_->metrics().AddShuffleRecords(right.num_rows);

    std::vector<size_t> offset(nb + 1, 0);
    for (size_t b = 0; b < nb; ++b) {
      offset[b + 1] = offset[b] + pairs[b].first.size();
    }
    const size_t total = offset[nb];
    UPA_CHECK_MSG(total < std::numeric_limits<uint32_t>::max(),
                  "join output too large for columnar row ids");

    ColRel out;
    out.schema = Schema::Concat(left.schema, right.schema);
    out.num_rows = total;
    const size_t nleft = left.sources.size();
    out.sources.resize(nleft + right.sources.size());
    std::vector<std::shared_ptr<SelVector>> fresh(out.sources.size());
    for (size_t s = 0; s < out.sources.size(); ++s) {
      const ColSource& src =
          s < nleft ? left.sources[s] : right.sources[s - nleft];
      out.sources[s].table = src.table;
      fresh[s] = std::make_shared<SelVector>(total);
    }
    MorselRun(ctx_, "columnar/join_gather", nb, 0, [&](size_t b0, size_t b1) {
      for (size_t b = b0; b < b1; ++b) {
        // Left-side rows come from the build positions iff we built from
        // the left; right-side rows from the other element of the pair.
        const SelVector& lpos = build_left ? pairs[b].first : pairs[b].second;
        const SelVector& rpos = build_left ? pairs[b].second : pairs[b].first;
        for (size_t s = 0; s < out.sources.size(); ++s) {
          const ColSource& src =
              s < nleft ? left.sources[s] : right.sources[s - nleft];
          const SelVector& pos = s < nleft ? lpos : rpos;
          const uint32_t* old_ids = src.row_ids->data();
          uint32_t* dst = fresh[s]->data() + offset[b];
          for (size_t i = 0; i < pos.size(); ++i) dst[i] = old_ids[pos[i]];
        }
      }
    });
    for (size_t s = 0; s < out.sources.size(); ++s) {
      out.sources[s].row_ids = std::move(fresh[s]);
    }

    out.col_map.reserve(left.col_map.size() + right.col_map.size());
    for (const auto& [s, c] : left.col_map) out.col_map.push_back({s, c});
    for (const auto& [s, c] : right.col_map) {
      out.col_map.push_back({static_cast<uint32_t>(s + nleft), c});
    }
    if (left.private_source >= 0) {
      out.private_source = left.private_source;
    } else if (right.private_source >= 0) {
      out.private_source = static_cast<int>(right.private_source + nleft);
    }
    return out;
  }

  engine::ExecContext* ctx_;
  const Catalog* catalog_;
  const ExecOptions& options_;
  const size_t engine_partitions_;
};

}  // namespace

JoinTable::JoinTable(const std::vector<int64_t>& keys)
    : next_(keys.size(), kEnd) {
  const size_t n = keys.size();
  UPA_CHECK_MSG(n < kEnd, "join build too large for columnar row ids");
  if (n == 0) return;
  const auto [lo, hi] = std::minmax_element(keys.begin(), keys.end());
  const uint64_t span = static_cast<uint64_t>(*hi) - static_cast<uint64_t>(*lo);
  dense_ = span < kDenseSpan * n;
  if (dense_) {
    min_ = *lo;
    head_.assign(span + 1, kEnd);
    for (size_t i = 0; i < n; ++i) {
      uint32_t& head =
          head_[static_cast<uint64_t>(keys[i]) - static_cast<uint64_t>(min_)];
      next_[i] = head;
      head = static_cast<uint32_t>(i);
    }
    return;
  }
  size_t cap = 16;
  while (cap < n * 2) cap <<= 1;
  mask_ = cap - 1;
  head_.assign(cap, kEnd);
  slot_key_.resize(cap);
  for (size_t i = 0; i < n; ++i) {
    const int64_t k = keys[i];
    uint64_t s = Mix64(static_cast<uint64_t>(k)) & mask_;
    while (head_[s] != kEnd && slot_key_[s] != k) s = (s + 1) & mask_;
    slot_key_[s] = k;
    next_[i] = head_[s];
    head_[s] = static_cast<uint32_t>(i);
  }
}

Status NonIntegerJoinKey(const std::string& key) {
  return Status::InvalidArgument("join key is not an integer: " + key);
}

SamplePass::SamplePass(const std::vector<size_t>& rows, size_t partitions)
    : rows_(rows),
      limit_(rows.empty() ? 0 : rows.back() + 1),
      bits_((limit_ + 63) / 64, 0),
      slots_(rows.size()),
      sampled_parts_(partitions) {
  for (size_t r : rows) bits_[r >> 6] |= uint64_t{1} << (r & 63);
}

void SamplePass::Add(size_t row, double weight) {
  Slot& slot =
      slots_[std::lower_bound(rows_.begin(), rows_.end(), row) - rows_.begin()];
  if (slot.adds == 0) {
    slot.weight = weight;
    slot.adds = 1;
  } else {
    if (slot.adds == 1) {
      slot.spilled = static_cast<uint32_t>(spilled_.size());
      spilled_.emplace_back().Add(slot.weight);
      slot.adds = kSpilled;
    }
    spilled_[slot.spilled].Add(weight);
  }
  sampled_parts_[row % sampled_parts_.size()].Add(weight);
}

double SamplePass::Round(const Slot& slot) const {
  switch (slot.adds) {
    case 0:
      return 0.0;
    case 1:
      // What an ExactSum of one value rounds to.
      return std::isnan(slot.weight) ? std::numeric_limits<double>::quiet_NaN()
                                     : slot.weight;
    default:
      return spilled_[slot.spilled].Round();
  }
}

ExecResult SamplePass::Finish(const std::vector<ExactSum>& partition_sums,
                              size_t result_rows) const {
  ExecResult result;
  result.result_rows = result_rows;
  result.partition_totals = sampled_parts_;
  result.partition_outputs.resize(partition_sums.size());
  ExactSum total;
  for (size_t p = 0; p < partition_sums.size(); ++p) {
    result.partition_outputs[p] = partition_sums[p].Round();
    result.partition_totals[p].Merge(partition_sums[p]);
    total.Merge(result.partition_totals[p]);
  }
  result.output = total.Round();
  result.sample_contributions.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    result.sample_contributions.push_back(Round(slot));
  }
  return result;
}

Status CheckAggregate(const PlanPtr& plan, const Schema& schema,
                      const ExecOptions& options) {
  const bool additive =
      plan->agg == AggKind::kCount || plan->agg == AggKind::kSum;
  if (!additive && options.sample_rows != nullptr) {
    return Status::Unsupported(
        "the one provenance pass requires an additive aggregate (Count or "
        "Sum)");
  }
  if (plan->agg == AggKind::kCount) return Status::Ok();
  if (plan->agg_expr == nullptr) {
    return Status::InvalidArgument("aggregate missing expression");
  }
  if (!ExprColumnsExist(plan->agg_expr, schema)) {
    return Status::InvalidArgument(
        "aggregate expression references unknown column in " +
        schema.ToString());
  }
  return Status::Ok();
}

Result<ExecResult> FinishAggregate(engine::ExecContext* ctx, AggKind agg,
                                   const std::vector<BatchAcc>& accs,
                                   SamplePass* sample) {
  // A cancel tripped mid-run sheds morsels; never report the partial fold.
  UPA_RETURN_IF_ERROR(CancelScope::CheckCurrent());
  size_t rows = 0;
  for (const BatchAcc& a : accs) rows += a.rows;
  if (sample != nullptr) {
    // The RANGE ENFORCER's per-partition aggregation is a real record
    // exchange in the row engine (ShuffleByKey over provenance-carrying
    // rows); account the same round here.
    ctx->metrics().AddShuffleRound();
    ctx->metrics().AddShuffleRecords(rows);
    std::vector<ExactSum> pid_sums(sample->partitions());
    for (const BatchAcc& a : accs) {
      for (const SampleHit& h : a.hits) sample->Add(h.row, h.weight);
      for (size_t p = 0; p < a.parts.size(); ++p) pid_sums[p].Merge(a.parts[p]);
    }
    return sample->Finish(pid_sums, rows);
  }

  // An exact sum of ones rounds to exactly the count, so Count adds the
  // row count once instead of a one per row.
  ExactSum total;
  if (agg == AggKind::kCount) {
    total.Add(static_cast<double>(rows));
  } else {
    for (const BatchAcc& a : accs) total.Merge(a.sum);
  }
  ExecResult result;
  result.result_rows = rows;
  if (agg == AggKind::kCount || agg == AggKind::kSum) {
    result.output = total.Round();
    return result;
  }
  if (rows == 0) {
    return Status::FailedPrecondition(
        "Avg/Min/Max aggregate over an empty relation");
  }
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  for (const BatchAcc& a : accs) {
    mn = a.mn < mn ? a.mn : mn;
    mx = a.mx > mx ? a.mx : mx;
  }
  switch (agg) {
    case AggKind::kAvg:
      result.output = total.Round() / static_cast<double>(rows);
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

Result<ScanBinding> BindScanSource(engine::ExecContext* ctx,
                                   const Catalog* catalog,
                                   const std::string& table_name,
                                   const ExecOptions& options) {
  auto it = catalog->find(table_name);
  if (it == catalog->end()) {
    return Status::NotFound("unknown table: " + table_name);
  }
  const Table* table = it->second;

  ScanBinding bind;
  bind.is_private = !options.private_table.empty() &&
                    table_name == options.private_table;
  if (!bind.is_private) {
    if (options.cache != nullptr) {
      // Route through the caller's block cache so scan reuse across a
      // release's passes is observable in the hit/miss metrics (the Fig
      // 4(b) effect), exactly like the row engine's materialized-scan cache.
      uint64_t key = Mix64(table->uid()) ^
                     Mix64(kColScanTag + ctx->config().default_partitions);
      auto cached =
          options.cache->GetOrCompute<std::shared_ptr<const ColumnarTable>>(
              key, [&] { return table->Columnar(); });
      bind.table = *cached;
    } else {
      bind.table = table->Columnar();
    }
    bind.row_ids = bind.table->identity();
    return bind;
  }
  // The private table's include/replace options are plain index-vector
  // surgery: provenance is the row-index itself. The one provenance pass
  // scans the identity, so it keeps the dense kernels.
  // A replacement outlives the pass (ExecOptions' contract), so it is bound
  // without taking ownership.
  bind.table = options.replace_private_rows != nullptr
                   ? std::shared_ptr<const ColumnarTable>(
                         std::shared_ptr<const ColumnarTable>(),
                         options.replace_private_rows)
                   : table->Columnar();
  if (options.include_rows != nullptr) {
    // Validated by PlanExecutor::Execute: sorted, distinct, in range.
    bind.row_ids = std::make_shared<SelVector>(options.include_rows->begin(),
                                               options.include_rows->end());
  } else {
    bind.row_ids = bind.table->identity();
  }
  return bind;
}

Result<ExecResult> ExecuteColumnar(engine::ExecContext* ctx,
                                   const Catalog* catalog, const PlanPtr& plan,
                                   const ExecOptions& options) {
  UPA_FAILPOINT("columnar/execute");
  UPA_RETURN_IF_ERROR(CancelScope::CheckCurrent());
  if (std::optional<FusedShape> shape = FusableShape(plan)) {
    return ExecuteFused(ctx, catalog, plan, *shape, options);
  }
  return ExecuteColumnarInterpreted(ctx, catalog, plan, options);
}

Result<ExecResult> ExecuteColumnarInterpreted(engine::ExecContext* ctx,
                                              const Catalog* catalog,
                                              const PlanPtr& plan,
                                              const ExecOptions& options) {
  ColumnarEvaluator evaluator(ctx, catalog, options);
  Result<ColRel> relr = evaluator.Eval(plan->left);
  if (!relr.ok()) return relr.status();
  ColRel rel = std::move(relr.value());
  UPA_RETURN_IF_ERROR(CheckAggregate(plan, rel.schema, options));

  const size_t n = rel.num_rows;
  const size_t nb = NumBatches(n);
  const bool need_expr = plan->agg != AggKind::kCount;
  std::vector<const Column*> cols = PhysicalColumns(rel);
  std::optional<CompiledExpr> weight;
  BatchInput in;
  if (need_expr) {
    weight.emplace(CompileExpr(plan->agg_expr, rel.schema, cols));
    in = BindColumns(rel, cols);
  }
  SelVector all(n);
  std::iota(all.begin(), all.end(), 0u);

  // The one provenance pass (validated by PlanExecutor::Execute: the
  // private table is scanned, so every row has provenance).
  std::optional<SamplePass> sample;
  const uint32_t* prov = nullptr;
  if (options.sample_rows != nullptr) {
    sample.emplace(*options.sample_rows, options.partitions);
    prov = rel.sources[rel.private_source].row_ids->data();
  }
  const size_t parts = options.partitions;
  const bool need_sum = !sample.has_value() && (plan->agg == AggKind::kSum ||
                                                plan->agg == AggKind::kAvg);
  const bool minmax =
      plan->agg != AggKind::kCount && plan->agg != AggKind::kSum;

  std::vector<BatchAcc> accs(nb);
  for (BatchAcc& a : accs) a.parts.resize(sample.has_value() ? parts : 0);
  MorselRun(ctx, "columnar/aggregate", nb, 0, [&](size_t b0, size_t b1) {
    std::vector<double> w;
    for (size_t b = b0; b < b1; ++b) {
      const size_t begin = b * kBatch, end = std::min(n, begin + kBatch);
      const size_t m = end - begin;
      BatchAcc& acc = accs[b];
      acc.rows = m;
      if (need_expr) {
        w.resize(m);
        ProjectKernel(*weight, in, all.data() + begin, m, w.data());
      } else if (sample.has_value()) {
        w.assign(m, 1.0);  // Count
      } else {
        continue;  // Count: the total is the row count
      }
      for (size_t i = 0; i < m; ++i) {
        if (need_sum) acc.sum.Add(w[i]);
        if (minmax) {
          acc.mn = w[i] < acc.mn ? w[i] : acc.mn;  // == std::min(mn, w)
          acc.mx = w[i] > acc.mx ? w[i] : acc.mx;  // == std::max(mx, w)
        }
        if (prov == nullptr) continue;
        const uint32_t r = prov[begin + i];
        if (sample->Contains(r)) {
          acc.hits.push_back({r, w[i]});
        } else {
          acc.parts[r % parts].Add(w[i]);
        }
      }
    }
  });
  ctx->metrics().AddKernelBatches(nb);
  ctx->metrics().AddKernelRows(n);
  return FinishAggregate(ctx, plan->agg, accs,
                         sample.has_value() ? &*sample : nullptr);
}

}  // namespace upa::rel
