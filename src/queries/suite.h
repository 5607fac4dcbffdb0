// QuerySuite: the nine evaluated queries (Table II) bound to generated
// datasets, with uniform access to UPA instances, native (vanilla-engine)
// runs, FLEX analysis, ground truth, and dataset churn — everything the
// benchmark harness and the examples need.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "flex/analyzer.h"
#include "groundtruth/ground_truth.h"
#include "mlkit/kmeans.h"
#include "mlkit/linreg.h"
#include "queries/plan_query.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "upa/runner.h"

namespace upa::queries {

struct SuiteConfig {
  tpch::TpchConfig tpch;
  ml::MlDataConfig ml;
  size_t threads = 0;
  size_t engine_partitions = 4;
};

struct QueryInfo {
  std::string name;
  std::string query_type;  // "Count" / "Arithmetic" / "Machine Learning"
  std::string private_table;  // "" for ML queries (the points are private)
  bool flex_supported = false;
  bool is_ml = false;
};

/// A churned variant of a query's private dataset: the original with
/// `removed` random records dropped (the per-run record churn of the
/// paper's Fig 2(b) methodology).
struct ChurnedData {
  /// The churned private table, built into columns once.
  std::shared_ptr<const rel::ColumnarTable> plan_rows;
  std::shared_ptr<const std::vector<ml::MlPoint>> ml_points;
  size_t removed = 0;
};

class QuerySuite {
 public:
  explicit QuerySuite(SuiteConfig config);

  /// The nine names in the paper's Figure 2 order.
  static const std::vector<std::string>& AllQueryNames();

  const QueryInfo& Info(const std::string& name) const;

  /// UPA query instance (optionally over churned data).
  core::QueryInstance MakeInstance(const std::string& name,
                                   const ChurnedData* churn = nullptr) const;

  /// Vanilla engine execution — the "native Spark" baseline of Fig 2(b).
  double RunNative(const std::string& name,
                   const ChurnedData* churn = nullptr) const;

  /// Exact-incremental brute-force ground truth.
  Result<gt::GroundTruth> ComputeGroundTruth(
      const std::string& name, size_t n_additions, uint64_t seed,
      const ChurnedData* churn = nullptr) const;

  /// FLEX static analysis (unsupported for ML queries by construction).
  flex::FlexResult RunFlex(const std::string& name) const;

  /// Remove `remove_count` random records from the query's private dataset.
  ChurnedData MakeChurn(const std::string& name, size_t remove_count,
                        uint64_t churn_seed) const;

  size_t NumPrivateRecords(const std::string& name,
                           const ChurnedData* churn = nullptr) const;

  engine::ExecContext& ctx() const { return *ctx_; }
  const tpch::TpchDataset& tpch_data() const { return *tpch_; }
  const ml::MlDataset& ml_data() const { return *ml_; }
  const rel::PlanExecutor& executor() const { return *executor_; }
  const SuiteConfig& config() const { return config_; }

  /// The fixed ML query parameters (deterministic per dataset).
  const ml::LinRegSpec& linreg_spec() const { return linreg_spec_; }
  const ml::KMeansSpec& kmeans_spec() const { return kmeans_spec_; }

 private:
  const tpch::TpchQuery& PlanFor(const std::string& name) const;
  core::SimpleQuerySpec<ml::MlPoint> MlSpecFor(
      const std::string& name, const ChurnedData* churn) const;

  SuiteConfig config_;
  std::unique_ptr<engine::ExecContext> ctx_;
  std::unique_ptr<tpch::TpchDataset> tpch_;
  std::unique_ptr<ml::MlDataset> ml_;
  std::shared_ptr<const rel::PlanExecutor> executor_;
  rel::Catalog catalog_;
  std::map<std::string, tpch::TpchQuery> tpch_queries_;
  std::map<std::string, QueryInfo> info_;
  ml::LinRegSpec linreg_spec_;
  ml::KMeansSpec kmeans_spec_;
};

}  // namespace upa::queries
