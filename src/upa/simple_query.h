// MakeSimpleQuery: build a QueryInstance from a plain record vector, a
// Mapper and (optionally) post/scalarize — the shape of user-defined
// map+reduce queries like Linear Regression and KMeans (paper §III).
//
// execute_phases runs on the engine: S' records are distributed into one
// engine partition per enforcer partition and mapped + pre-reduced in
// parallel (one task per partition, exactly Algorithm 1's ReduceByPar);
// the sampled records and the synthetic domain records (none on a hinted
// run) are mapped as small datasets of their own.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/dataset.h"
#include "engine/shuffle.h"
#include "upa/query_instance.h"

namespace upa::core {

/// The flat batches of Vec-mapped records: every row takes the dimension
/// of the first value that has one (1 when none does), an empty Vec stays
/// the identity, and any other length aborts, as VecSum::Combine would.
inline MappedBatches FlattenMapped(const std::vector<Vec>& sprime_partials,
                                   const std::vector<Vec>& sample_mapped,
                                   const std::vector<Vec>& domain_mapped) {
  MappedBatches out;
  for (const std::vector<Vec>* batch :
       {&sprime_partials, &sample_mapped, &domain_mapped}) {
    auto it = std::find_if(batch->begin(), batch->end(),
                           [](const Vec& v) { return !v.empty(); });
    if (it != batch->end()) {
      out.dim = it->size();
      break;
    }
  }
  for (const auto& [batch, rows] :
       {std::pair{&sprime_partials, &out.sprime_partials},
        std::pair{&sample_mapped, &out.sample_mapped},
        std::pair{&domain_mapped, &out.domain_mapped}}) {
    rows->values.reserve(batch->size() * out.dim);
    for (const Vec& v : *batch) rows->Append(v, out.dim);
  }
  return out;
}

template <typename Record>
struct SimpleQuerySpec {
  std::string name;
  engine::ExecContext* ctx = nullptr;
  /// The private input dataset x.
  std::shared_ptr<const std::vector<Record>> records;
  /// M: record -> Vec.
  std::function<Vec(const Record&)> map_record;
  /// Draw a synthetic record from the domain D \ x (for the "record added"
  /// neighbours). Must be distribution-plausible for the dataset.
  std::function<Record(Rng&)> sample_domain;
  /// Optional post-processing / scalarization (see QueryInstance).
  std::function<Vec(const Vec&)> post;
  std::function<double(const Vec&)> scalarize;
};

template <typename Record>
QueryInstance MakeSimpleQuery(SimpleQuerySpec<Record> spec) {
  UPA_CHECK(spec.ctx != nullptr);
  UPA_CHECK(spec.records != nullptr);
  UPA_CHECK_MSG(spec.map_record && spec.sample_domain,
                "SimpleQuerySpec needs map_record and sample_domain");

  QueryInstance q;
  q.name = spec.name;
  q.ctx = spec.ctx;
  q.num_records = spec.records->size();
  q.post = spec.post;
  q.scalarize = spec.scalarize;

  q.execute_phases = [spec = std::move(spec)](
                         std::span<const size_t> sample_indices,
                         size_t num_partitions, size_t num_domain,
                         uint64_t seed) {
    const std::vector<Record>& records = *spec.records;

    // S' = records not in the sample, tagged with their enforcer
    // partition (record i belongs to partition i % num_partitions).
    std::vector<std::pair<size_t, Record>> sprime;
    sprime.reserve(records.size() - sample_indices.size());
    {
      size_t cursor = 0;  // sample_indices is sorted
      for (size_t i = 0; i < records.size(); ++i) {
        if (cursor < sample_indices.size() && sample_indices[cursor] == i) {
          ++cursor;
          continue;
        }
        sprime.push_back({i % num_partitions, records[i]});
      }
    }
    // Per-partition reduction goes through a *real* record shuffle — the
    // RANGE ENFORCER exchanges same-partition records between workers
    // (paper §VI-D), which is the overhead source for local-computation
    // queries.
    std::vector<Vec> sprime_partials;
    sprime_partials = spec.ctx->TimePhase("upa/map_sprime", [&] {
      auto shuffled = engine::ShuffleByKey(
          engine::Dataset<std::pair<size_t, Record>>::FromVector(
              spec.ctx, std::move(sprime)),
          num_partitions);
      auto mapped = shuffled.Map([&spec](const std::pair<size_t, Record>& pr) {
        return std::pair<size_t, Vec>{pr.first, spec.map_record(pr.second)};
      });
      std::vector<Vec> partials(num_partitions, VecSum::Identity());
      for (size_t p = 0; p < mapped.NumPartitions(); ++p) {
        for (const auto& [pid, v] : mapped.partition(p)) {
          partials[pid] = VecSum::Combine(std::move(partials[pid]), v);
        }
      }
      return partials;
    });

    // Sampled records S.
    std::vector<Record> sampled;
    sampled.reserve(sample_indices.size());
    for (size_t idx : sample_indices) sampled.push_back(records[idx]);
    std::vector<Vec> sample_mapped = spec.ctx->TimePhase("upa/map_sample", [&] {
      return engine::Dataset<Record>::FromVector(spec.ctx, std::move(sampled))
          .Map(spec.map_record)
          .Collect();
    });

    // Synthetic domain records (D \ x side of the neighbour sampling); a
    // hinted run asks for none.
    if (num_domain == 0) {
      return FlattenMapped(sprime_partials, sample_mapped, {});
    }
    Rng domain_rng = Rng::ForStream(seed, "upa/domain/" + spec.name);
    std::vector<Record> domain;
    domain.reserve(num_domain);
    for (size_t i = 0; i < num_domain; ++i) {
      domain.push_back(spec.sample_domain(domain_rng));
    }
    std::vector<Vec> domain_mapped = spec.ctx->TimePhase("upa/map_domain", [&] {
      return engine::Dataset<Record>::FromVector(spec.ctx, std::move(domain))
          .Map(spec.map_record)
          .Collect();
    });
    return FlattenMapped(sprime_partials, sample_mapped, domain_mapped);
  };
  return q;
}

}  // namespace upa::core
