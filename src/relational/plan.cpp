#include "relational/plan.h"

#include "common/status.h"

namespace upa::rel {

PlanPtr ScanPlan(std::string table) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanKind::kScan;
  n->table = std::move(table);
  return n;
}

PlanPtr FilterPlan(PlanPtr child, ExprPtr predicate) {
  UPA_CHECK(child != nullptr && predicate != nullptr);
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanKind::kFilter;
  n->left = std::move(child);
  n->predicate = std::move(predicate);
  return n;
}

PlanPtr JoinPlan(PlanPtr left, PlanPtr right, std::string left_key,
                 std::string right_key) {
  UPA_CHECK(left != nullptr && right != nullptr);
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanKind::kJoin;
  n->left = std::move(left);
  n->right = std::move(right);
  n->left_key = std::move(left_key);
  n->right_key = std::move(right_key);
  return n;
}

PlanPtr CountPlan(PlanPtr child) {
  UPA_CHECK(child != nullptr);
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanKind::kAggregate;
  n->left = std::move(child);
  n->agg = AggKind::kCount;
  return n;
}

namespace {
PlanPtr ExprAggregate(PlanPtr child, ExprPtr expr, AggKind kind) {
  UPA_CHECK(child != nullptr && expr != nullptr);
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanKind::kAggregate;
  n->left = std::move(child);
  n->agg = kind;
  n->agg_expr = std::move(expr);
  return n;
}
}  // namespace

PlanPtr SumPlan(PlanPtr child, ExprPtr expr) {
  return ExprAggregate(std::move(child), std::move(expr), AggKind::kSum);
}

PlanPtr AvgPlan(PlanPtr child, ExprPtr expr) {
  return ExprAggregate(std::move(child), std::move(expr), AggKind::kAvg);
}

PlanPtr MinPlan(PlanPtr child, ExprPtr expr) {
  return ExprAggregate(std::move(child), std::move(expr), AggKind::kMin);
}

PlanPtr MaxPlan(PlanPtr child, ExprPtr expr) {
  return ExprAggregate(std::move(child), std::move(expr), AggKind::kMax);
}

namespace {

void AnalyzeInto(const PlanPtr& plan, PlanStats& stats) {
  UPA_CHECK(plan != nullptr);
  switch (plan->kind) {
    case PlanKind::kScan:
      ++stats.num_scans;
      stats.tables.push_back(plan->table);
      return;
    case PlanKind::kFilter:
      ++stats.num_filters;
      AnalyzeInto(plan->left, stats);
      return;
    case PlanKind::kJoin:
      ++stats.num_joins;
      stats.join_columns.push_back({"", plan->left_key});
      stats.join_columns.push_back({"", plan->right_key});
      AnalyzeInto(plan->left, stats);
      AnalyzeInto(plan->right, stats);
      return;
    case PlanKind::kAggregate:
      stats.has_aggregate = true;
      stats.agg = plan->agg;
      AnalyzeInto(plan->left, stats);
      return;
  }
}

/// Finds the scan table under `plan` whose schema has `column`.
void FindOwners(const PlanPtr& plan, const std::string& column,
                const Catalog& catalog, std::vector<std::string>& owners) {
  switch (plan->kind) {
    case PlanKind::kScan: {
      auto it = catalog.find(plan->table);
      if (it != catalog.end() && it->second->schema().Has(column)) {
        owners.push_back(plan->table);
      }
      return;
    }
    case PlanKind::kFilter:
    case PlanKind::kAggregate:
      FindOwners(plan->left, column, catalog, owners);
      return;
    case PlanKind::kJoin:
      FindOwners(plan->left, column, catalog, owners);
      FindOwners(plan->right, column, catalog, owners);
      return;
  }
}

}  // namespace

PlanStats AnalyzePlan(const PlanPtr& plan) {
  PlanStats stats;
  AnalyzeInto(plan, stats);
  return stats;
}

size_t CountScansOf(const PlanPtr& plan, const std::string& table) {
  if (plan == nullptr) return 0;
  size_t n = plan->kind == PlanKind::kScan && plan->table == table ? 1 : 0;
  return n + CountScansOf(plan->left, table) + CountScansOf(plan->right, table);
}

std::string PlanToString(const PlanPtr& plan) {
  UPA_CHECK(plan != nullptr);
  switch (plan->kind) {
    case PlanKind::kScan:
      return "Scan(" + plan->table + ")";
    case PlanKind::kFilter:
      return "Filter(" + PlanToString(plan->left) + ", " +
             plan->predicate->ToString() + ")";
    case PlanKind::kJoin:
      return "Join(" + PlanToString(plan->left) + ", " +
             PlanToString(plan->right) + ", " + plan->left_key + "=" +
             plan->right_key + ")";
    case PlanKind::kAggregate: {
      if (plan->agg == AggKind::kCount) {
        return "Count(" + PlanToString(plan->left) + ")";
      }
      const char* name = plan->agg == AggKind::kSum   ? "Sum"
                         : plan->agg == AggKind::kAvg ? "Avg"
                         : plan->agg == AggKind::kMin ? "Min"
                                                      : "Max";
      return std::string(name) + "(" + PlanToString(plan->left) + ", " +
             plan->agg_expr->ToString() + ")";
    }
  }
  return "?";
}

uint64_t PlanFingerprint(const PlanPtr& plan, const Catalog& catalog) {
  if (plan == nullptr) return 0x9a71'9a71ULL;
  uint64_t h = Mix64(0x91a'0000ULL + static_cast<uint64_t>(plan->kind));
  switch (plan->kind) {
    case PlanKind::kScan: {
      h = HashCombine(h, Fnv1a(plan->table));
      auto it = catalog.find(plan->table);
      if (it != catalog.end() && it->second != nullptr) {
        h = HashCombine(h, Mix64(it->second->uid()));
      }
      return h;
    }
    case PlanKind::kFilter:
      h = HashCombine(h, ExprFingerprint(plan->predicate));
      return HashCombine(h, PlanFingerprint(plan->left, catalog));
    case PlanKind::kJoin:
      h = HashCombine(h, Fnv1a(plan->left_key));
      h = HashCombine(h, Fnv1a(plan->right_key));
      h = HashCombine(h, static_cast<uint64_t>(plan->build_side));
      h = HashCombine(h, PlanFingerprint(plan->left, catalog));
      return HashCombine(h, PlanFingerprint(plan->right, catalog));
    case PlanKind::kAggregate:
      h = HashCombine(h, static_cast<uint64_t>(plan->agg));
      h = HashCombine(h, ExprFingerprint(plan->agg_expr));
      return HashCombine(h, PlanFingerprint(plan->left, catalog));
  }
  return h;
}

bool PlanEquals(const PlanPtr& a, const PlanPtr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr || a->kind != b->kind) return false;
  switch (a->kind) {
    case PlanKind::kScan:
      return a->table == b->table;
    case PlanKind::kFilter:
      return ExprEquals(a->predicate, b->predicate) &&
             PlanEquals(a->left, b->left);
    case PlanKind::kJoin:
      return a->left_key == b->left_key && a->right_key == b->right_key &&
             a->build_side == b->build_side && PlanEquals(a->left, b->left) &&
             PlanEquals(a->right, b->right);
    case PlanKind::kAggregate:
      return a->agg == b->agg && ExprEquals(a->agg_expr, b->agg_expr) &&
             PlanEquals(a->left, b->left);
  }
  return false;
}

std::string OwningTable(const PlanPtr& plan, const std::string& column,
                        const Catalog& catalog) {
  std::vector<std::string> owners;
  FindOwners(plan, column, catalog, owners);
  if (owners.size() == 1) return owners[0];
  return "";
}

}  // namespace upa::rel
