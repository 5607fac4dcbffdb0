#include "flex/analyzer.h"

namespace upa::flex {
namespace {

/// Walks the plan collecting join key columns with their owning tables.
void CollectJoins(const rel::PlanPtr& plan, const rel::Catalog& catalog,
                  std::vector<JoinFactor>& joins, bool& ok,
                  std::string& reason) {
  if (plan == nullptr || !ok) return;
  switch (plan->kind) {
    case rel::PlanKind::kScan:
      return;
    case rel::PlanKind::kFilter:
      // FLEX's model has Select/Filter but assigns them no effect on the
      // inferred sensitivity — this is precisely its documented
      // inaccuracy.
      CollectJoins(plan->left, catalog, joins, ok, reason);
      return;
    case rel::PlanKind::kAggregate:
      CollectJoins(plan->left, catalog, joins, ok, reason);
      return;
    case rel::PlanKind::kJoin: {
      JoinFactor f;
      f.left_column = plan->left_key;
      f.right_column = plan->right_key;
      f.left_table = rel::OwningTable(plan->left, plan->left_key, catalog);
      f.right_table = rel::OwningTable(plan->right, plan->right_key, catalog);
      if (f.left_table.empty() || f.right_table.empty()) {
        ok = false;
        reason = "cannot resolve join column ownership: " + plan->left_key +
                 "=" + plan->right_key;
        return;
      }
      f.left_max_frequency =
          catalog.at(f.left_table)->MaxFrequency(f.left_column);
      f.right_max_frequency =
          catalog.at(f.right_table)->MaxFrequency(f.right_column);
      joins.push_back(std::move(f));
      CollectJoins(plan->left, catalog, joins, ok, reason);
      CollectJoins(plan->right, catalog, joins, ok, reason);
      return;
    }
  }
}

}  // namespace

FlexResult AnalyzeFlex(const rel::PlanPtr& plan, const rel::Catalog& catalog) {
  FlexResult result;
  if (plan == nullptr || plan->kind != rel::PlanKind::kAggregate) {
    result.unsupported_reason = "not an aggregate query";
    return result;
  }
  if (plan->agg != rel::AggKind::kCount) {
    // The published FLEX system handles count; SUM/AVG/MIN/MAX are only
    // sketched as possible extensions (paper §II-B).
    result.unsupported_reason =
        "FLEX supports only counting queries (arithmetic aggregate)";
    return result;
  }

  bool ok = true;
  std::string reason;
  CollectJoins(plan->left, catalog, result.joins, ok, reason);
  if (!ok) {
    result.unsupported_reason = reason;
    return result;
  }

  // Count with no joins: adding/removing one record changes the count by
  // exactly one — FLEX is exact here (the paper's TPCH1 case).
  double sensitivity = 1.0;
  for (const JoinFactor& join : result.joins) {
    sensitivity *= join.factor();
  }
  result.supported = true;
  result.local_sensitivity = sensitivity;
  return result;
}

}  // namespace upa::flex
