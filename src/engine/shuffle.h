// Wide (shuffle) operations: redistribution by key and hash join.
//
// Each wide operation is a stage boundary: records physically move between
// partition buffers according to Mix64(hash(key)) % partitions, and the
// engine counts one shuffle round plus the number of records exchanged.
// UPA's joinDP triggers this twice per Join (paper §V-C) — the shuffle
// counters are how the reproduction demonstrates that.
#pragma once

#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "engine/dataset.h"

namespace upa::engine {

/// Redistribute key-value pairs so equal keys land in the same partition.
/// K must be hashable with std::hash.
template <typename K, typename V>
Dataset<std::pair<K, V>> ShuffleByKey(const Dataset<std::pair<K, V>>& input,
                                      size_t num_partitions = 0) {
  ExecContext* ctx = input.context();
  if (num_partitions == 0) num_partitions = ctx->config().default_partitions;
  num_partitions = std::max<size_t>(1, num_partitions);

  std::vector<std::vector<std::pair<K, V>>> out(num_partitions);
  size_t moved = 0;
  // Sequential exchange: a real cluster would stream blocks over the
  // network; here the cost is the physical regrouping itself.
  for (size_t p = 0; p < input.NumPartitions(); ++p) {
    for (const auto& kv : input.partition(p)) {
      size_t dest = static_cast<size_t>(
          Mix64(static_cast<uint64_t>(std::hash<K>{}(kv.first))) %
          num_partitions);
      out[dest].push_back(kv);
      ++moved;
    }
  }
  ctx->metrics().AddShuffleRound();
  ctx->metrics().AddShuffleRecords(moved);
  return Dataset<std::pair<K, V>>(ctx, std::move(out));
}

/// Inner hash join on key: emits (k, (v, w)) for every matching pair.
template <typename K, typename V, typename W>
Dataset<std::pair<K, std::pair<V, W>>> HashJoin(
    const Dataset<std::pair<K, V>>& left,
    const Dataset<std::pair<K, W>>& right, size_t num_partitions = 0) {
  UPA_CHECK_MSG(left.context() == right.context(),
                "join requires datasets from the same context");
  Dataset<std::pair<K, V>> ls = ShuffleByKey(left, num_partitions);
  Dataset<std::pair<K, W>> rs = ShuffleByKey(right, num_partitions);
  UPA_CHECK(ls.NumPartitions() == rs.NumPartitions());

  ExecContext* ctx = ls.context();
  using Out = std::pair<K, std::pair<V, W>>;
  std::vector<std::vector<Out>> out(ls.NumPartitions());
  ctx->metrics().AddTasks(ls.NumPartitions());
  ctx->pool().ParallelFor(ls.NumPartitions(), [&](size_t p) {
    std::unordered_multimap<K, W> build;
    build.reserve(rs.partition(p).size());
    for (const auto& [k, w] : rs.partition(p)) build.emplace(k, w);
    for (const auto& [k, v] : ls.partition(p)) {
      auto [lo, hi] = build.equal_range(k);
      for (auto it = lo; it != hi; ++it) {
        out[p].push_back({k, {v, it->second}});
      }
    }
    ctx->metrics().AddRecords(ls.partition(p).size() +
                              rs.partition(p).size());
  });
  return Dataset<Out>(ctx, std::move(out));
}

}  // namespace upa::engine
