#include "queries/suite.h"

#include <algorithm>

#include "engine/dataset.h"
#include "relational/columnar.h"

namespace upa::queries {

QuerySuite::QuerySuite(SuiteConfig config) : config_(config) {
  ctx_ = std::make_unique<engine::ExecContext>(engine::ExecConfig{
      .threads = config_.threads,
      .default_partitions = config_.engine_partitions});
  tpch_ = std::make_unique<tpch::TpchDataset>(config_.tpch);
  ml_ = std::make_unique<ml::MlDataset>(config_.ml);
  catalog_ = tpch_->catalog();
  executor_ = std::make_shared<const rel::PlanExecutor>(ctx_.get(), &catalog_);

  for (tpch::TpchQuery& q : tpch::AllTpchQueries()) {
    info_[q.name] = QueryInfo{q.name, q.query_type, q.private_table,
                              q.flex_supported, /*is_ml=*/false};
    tpch_queries_.emplace(q.name, std::move(q));
  }
  info_["KMeans"] =
      QueryInfo{"KMeans", "Machine Learning", "", false, /*is_ml=*/true};
  info_["LinearRegression"] = QueryInfo{"LinearRegression", "Machine Learning",
                                        "", false, /*is_ml=*/true};

  // Fixed ML query parameters, derived deterministically from the dataset
  // (the paper's queries likewise carry their hyper-parameters as part of
  // the query definition).
  linreg_spec_.w0.assign(config_.ml.dims, 0.0);
  linreg_spec_.b0 = 0.0;
  linreg_spec_.learning_rate = 0.1;
  kmeans_spec_.centroids = ml::LloydIterations(
      *ml_->points(),
      ml::InitCentroids(*ml_->points(), config_.ml.mixture_components), 2);
}

const std::vector<std::string>& QuerySuite::AllQueryNames() {
  static const std::vector<std::string> kNames = {
      "TPCH1",  "TPCH4",  "TPCH13",           "TPCH16", "TPCH21",
      "KMeans", "LinearRegression", "TPCH6",  "TPCH11"};
  return kNames;
}

const QueryInfo& QuerySuite::Info(const std::string& name) const {
  auto it = info_.find(name);
  UPA_CHECK_MSG(it != info_.end(), "unknown query: " + name);
  return it->second;
}

const tpch::TpchQuery& QuerySuite::PlanFor(const std::string& name) const {
  auto it = tpch_queries_.find(name);
  UPA_CHECK_MSG(it != tpch_queries_.end(), "not a TPC-H query: " + name);
  return it->second;
}

core::SimpleQuerySpec<ml::MlPoint> QuerySuite::MlSpecFor(
    const std::string& name, const ChurnedData* churn) const {
  std::shared_ptr<const std::vector<ml::MlPoint>> records =
      churn != nullptr ? churn->ml_points : nullptr;
  if (name == "LinearRegression") {
    return ml::MakeLinRegSpec(ctx_.get(), *ml_, linreg_spec_, records);
  }
  if (name == "KMeans") {
    return ml::MakeKMeansSpec(ctx_.get(), *ml_, kmeans_spec_, records);
  }
  UPA_CHECK_MSG(false, "not an ML query: " + name);
  return {};
}

core::QueryInstance QuerySuite::MakeInstance(const std::string& name,
                                             const ChurnedData* churn) const {
  const QueryInfo& info = Info(name);
  if (info.is_ml) {
    return core::MakeSimpleQuery(MlSpecFor(name, churn));
  }
  return MakePlanQuery(ctx_.get(), executor_, tpch_.get(), PlanFor(name),
                       churn != nullptr ? churn->plan_rows : nullptr);
}

double QuerySuite::RunNative(const std::string& name,
                             const ChurnedData* churn) const {
  const QueryInfo& info = Info(name);
  if (info.is_ml) {
    core::SimpleQuerySpec<ml::MlPoint> spec = MlSpecFor(name, churn);
    auto reduced =
        engine::Dataset<ml::MlPoint>::FromVector(ctx_.get(), *spec.records)
            .Map(spec.map_record)
            .Reduce(
                [](core::Vec a, const core::Vec& b) {
                  return core::VecSum::Combine(std::move(a), b);
                },
                core::VecSum::Identity());
    core::Vec posted = spec.post ? spec.post(reduced) : reduced;
    return spec.scalarize ? spec.scalarize(posted) : core::ScalarOf(posted);
  }

  const tpch::TpchQuery& query = PlanFor(name);
  rel::ExecOptions opts;
  if (churn != nullptr) {
    opts.private_table = query.private_table;
    opts.replace_private_rows = churn->plan_rows.get();
  }
  Result<rel::ExecResult> r = executor_->Execute(query.plan, opts);
  UPA_CHECK_MSG(r.ok(), "native run failed: " + r.status().ToString());
  return r.value().output;
}

Result<gt::GroundTruth> QuerySuite::ComputeGroundTruth(
    const std::string& name, size_t n_additions, uint64_t seed,
    const ChurnedData* churn) const {
  const QueryInfo& info = Info(name);
  if (info.is_ml) {
    return gt::ExactSimpleGroundTruth(MlSpecFor(name, churn), n_additions,
                                      seed);
  }
  const tpch::TpchQuery& query = PlanFor(name);
  const rel::ColumnarTable* replacement =
      churn != nullptr ? churn->plan_rows.get() : nullptr;
  return gt::ExactPlanGroundTruth(
      *executor_, query.plan, query.private_table,
      NumPrivateRecords(name, churn),
      [this, &query](Rng& rng) {
        return tpch_->SampleRow(query.private_table, rng);
      },
      n_additions, seed, replacement);
}

flex::FlexResult QuerySuite::RunFlex(const std::string& name) const {
  const QueryInfo& info = Info(name);
  if (info.is_ml) {
    flex::FlexResult r;
    r.supported = false;
    r.unsupported_reason =
        "FLEX operates on SQL relational algebra; user-defined MapReduce "
        "queries are outside its model";
    return r;
  }
  return flex::AnalyzeFlex(PlanFor(name).plan, catalog_);
}

ChurnedData QuerySuite::MakeChurn(const std::string& name, size_t remove_count,
                                  uint64_t churn_seed) const {
  const QueryInfo& info = Info(name);
  ChurnedData churn;
  churn.removed = remove_count;
  Rng rng = Rng::ForStream(churn_seed, "churn/" + name);
  if (info.is_ml) {
    const std::vector<ml::MlPoint>& points = *ml_->points();
    UPA_CHECK(remove_count <= points.size());
    std::vector<size_t> removed =
        rng.SampleWithoutReplacement(points.size(), remove_count);
    auto kept = std::make_shared<std::vector<ml::MlPoint>>();
    kept->reserve(points.size() - remove_count);
    size_t cursor = 0;
    for (size_t i = 0; i < points.size(); ++i) {
      if (cursor < removed.size() && removed[cursor] == i) {
        ++cursor;
        continue;
      }
      kept->push_back(points[i]);
    }
    churn.ml_points = std::move(kept);
    return churn;
  }
  const std::string& table = info.private_table;
  size_t n = tpch_->table(table).NumRows();
  UPA_CHECK(remove_count <= n);
  std::vector<size_t> removed =
      rng.SampleWithoutReplacement(n, remove_count);
  churn.plan_rows = rel::ColumnarTable::Build(
      tpch_->table(table).schema(), tpch_->RowsWithout(table, removed));
  return churn;
}

size_t QuerySuite::NumPrivateRecords(const std::string& name,
                                     const ChurnedData* churn) const {
  const QueryInfo& info = Info(name);
  if (info.is_ml) {
    if (churn != nullptr && churn->ml_points != nullptr) {
      return churn->ml_points->size();
    }
    return ml_->points()->size();
  }
  if (churn != nullptr && churn->plan_rows != nullptr) {
    return churn->plan_rows->num_rows();
  }
  return tpch_->table(info.private_table).NumRows();
}

}  // namespace upa::queries
