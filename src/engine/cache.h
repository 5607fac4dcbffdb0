// Type-erased block cache modelling Spark's in-memory block store.
//
// UPA's sampled-neighbour phase repeatedly touches the same mapped sample
// blocks, which is why the paper observes the Spark cache hit rate rising
// from 10.3% to 48.9% in that phase (Fig 4b). The engine records hits and
// misses here so the reproduction can report the same effect. Callers own
// a cache and scope it: MakePlanQuery builds one per release, shared by
// that release's passes, so no entry outlives the release.
#pragma once

#include <any>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "engine/metrics.h"

namespace upa::engine {

class BlockCache {
 public:
  explicit BlockCache(ExecMetrics* metrics) : metrics_(metrics) {}

  /// Returns the cached value for `key` if present (cache hit), otherwise
  /// computes it with `compute`, stores and returns it (miss). The value
  /// type T must match across calls with the same key.
  template <typename T, typename Fn>
  std::shared_ptr<const T> GetOrCompute(uint64_t key, Fn&& compute) {
    {
      std::lock_guard lock(mu_);
      auto it = blocks_.find(key);
      if (it != blocks_.end()) {
        if (metrics_ != nullptr) metrics_->AddCacheHit();
        return std::static_pointer_cast<const T>(it->second);
      }
    }
    if (metrics_ != nullptr) metrics_->AddCacheMiss();
    auto value = std::make_shared<const T>(compute());
    std::lock_guard lock(mu_);
    blocks_.emplace(key, value);
    return value;
  }

  /// Looks up without computing. Counts hit/miss.
  template <typename T>
  std::shared_ptr<const T> Get(uint64_t key) {
    std::lock_guard lock(mu_);
    auto it = blocks_.find(key);
    if (it == blocks_.end()) {
      if (metrics_ != nullptr) metrics_->AddCacheMiss();
      return nullptr;
    }
    if (metrics_ != nullptr) metrics_->AddCacheHit();
    return std::static_pointer_cast<const T>(it->second);
  }

  /// Stores `value` under `key` and returns the stored entry.
  template <typename T>
  std::shared_ptr<const T> Put(uint64_t key, T value) {
    auto ptr = std::make_shared<const T>(std::move(value));
    std::lock_guard lock(mu_);
    blocks_[key] = ptr;
    return ptr;
  }

  void Clear() {
    std::lock_guard lock(mu_);
    blocks_.clear();
  }

  size_t size() const {
    std::lock_guard lock(mu_);
    return blocks_.size();
  }

 private:
  ExecMetrics* metrics_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<const void>> blocks_;
};

}  // namespace upa::engine
