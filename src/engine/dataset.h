// Dataset<T>: the engine's RDD.
//
// A Dataset is an immutable, partitioned, in-memory collection. Narrow
// transformations (Map/Filter) run one task per partition on the context's
// thread pool; wide operations (shuffle by key, hash join — see shuffle.h)
// exchange records between partitions through an explicit shuffle stage,
// like Spark's stage boundary.
//
// All user-supplied operators are expected to be pure; the commutativity /
// associativity contract that UPA relies on (paper §II-C) is verified for
// shipped reducers by property tests in tests/.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/context.h"

namespace upa::engine {

template <typename T>
class Dataset {
 public:
  using value_type = T;
  using Partition = std::vector<T>;

  Dataset(ExecContext* ctx, std::vector<Partition> partitions)
      : ctx_(ctx), partitions_(std::make_shared<const std::vector<Partition>>(
                       std::move(partitions))) {
    UPA_CHECK_MSG(ctx_ != nullptr, "Dataset requires an ExecContext");
  }

  /// Zero-copy construction over already-materialized partitions (e.g. a
  /// cached scan). Datasets never mutate their partitions.
  Dataset(ExecContext* ctx,
          std::shared_ptr<const std::vector<Partition>> partitions)
      : ctx_(ctx), partitions_(std::move(partitions)) {
    UPA_CHECK_MSG(ctx_ != nullptr, "Dataset requires an ExecContext");
    UPA_CHECK_MSG(partitions_ != nullptr, "Dataset requires partitions");
  }

  /// Distribute `values` round-robin-by-block into `num_partitions` parts
  /// (0 → context default). Preserves relative order within partitions.
  static Dataset FromVector(ExecContext* ctx, std::vector<T> values,
                            size_t num_partitions = 0) {
    UPA_CHECK(ctx != nullptr);
    if (num_partitions == 0) num_partitions = ctx->config().default_partitions;
    num_partitions = std::max<size_t>(1, num_partitions);
    std::vector<Partition> parts(num_partitions);
    size_t n = values.size();
    size_t per = (n + num_partitions - 1) / num_partitions;
    for (size_t p = 0; p < num_partitions; ++p) {
      size_t begin = p * per;
      size_t end = std::min(n, begin + per);
      if (begin < end) {
        parts[p].assign(std::make_move_iterator(values.begin() + begin),
                        std::make_move_iterator(values.begin() + end));
      }
    }
    return Dataset(ctx, std::move(parts));
  }

  ExecContext* context() const { return ctx_; }
  size_t NumPartitions() const { return partitions_->size(); }
  const Partition& partition(size_t i) const { return (*partitions_)[i]; }

  size_t Count() const {
    size_t total = 0;
    for (const auto& p : *partitions_) total += p.size();
    return total;
  }

  /// Narrow transformation: apply fn to every element.
  template <typename Fn, typename U = std::invoke_result_t<Fn, const T&>>
  Dataset<U> Map(Fn fn) const {
    std::vector<std::vector<U>> out(NumPartitions());
    RunPerPartition([&](size_t p) {
      const Partition& in = (*partitions_)[p];
      out[p].reserve(in.size());
      for (const T& v : in) out[p].push_back(fn(v));
      ctx_->metrics().AddRecords(in.size());
    });
    return Dataset<U>(ctx_, std::move(out));
  }

  /// Narrow transformation: keep elements where pred(v) is true.
  template <typename Pred>
  Dataset<T> Filter(Pred pred) const {
    std::vector<Partition> out(NumPartitions());
    RunPerPartition([&](size_t p) {
      const Partition& in = (*partitions_)[p];
      for (const T& v : in) {
        if (pred(v)) out[p].push_back(v);
      }
      ctx_->metrics().AddRecords(in.size());
    });
    return Dataset<T>(ctx_, std::move(out));
  }

  /// Action: reduce all elements with a commutative-associative combine.
  /// `identity` must be a two-sided identity of `combine` (empty partitions
  /// contribute it to the final combine). Returns `identity` for an empty
  /// dataset. Partitions reduce in parallel (the "ReduceByPar" of
  /// Algorithm 1), then partials combine in partition order
  /// (deterministic).
  template <typename Combine>
  T Reduce(Combine combine, T identity) const {
    std::vector<T> partials(NumPartitions(), identity);
    RunPerPartition([&](size_t p) {
      const Partition& in = (*partitions_)[p];
      T acc = identity;
      for (const T& v : in) acc = combine(std::move(acc), v);
      partials[p] = std::move(acc);
      ctx_->metrics().AddRecords(in.size());
    });
    T acc = identity;
    for (T& partial : partials) acc = combine(std::move(acc), partial);
    return acc;
  }

  /// Action: materialize all elements in partition order.
  std::vector<T> Collect() const {
    std::vector<T> out;
    out.reserve(Count());
    for (const auto& p : *partitions_) {
      out.insert(out.end(), p.begin(), p.end());
    }
    return out;
  }

 private:
  template <typename Fn>
  void RunPerPartition(const Fn& fn) const {
    ctx_->metrics().AddTasks(NumPartitions());
    ctx_->pool().ParallelFor(NumPartitions(), fn);
  }

  ExecContext* ctx_;
  std::shared_ptr<const std::vector<Partition>> partitions_;
};

}  // namespace upa::engine
