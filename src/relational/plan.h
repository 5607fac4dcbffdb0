// Logical query plans: the Scan / Filter / Join / Aggregate subset the
// paper evaluates (SparkSQL TPC-H queries reduced to scalar aggregates).
//
// The same plan object serves three consumers:
//   * the provenance executor (native runs, UPA's phase runs, ground truth),
//   * FLEX's static analyzer (operator composition + join-key metadata),
//   * documentation (ToString).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "relational/expr.h"
#include "relational/table.h"

namespace upa::rel {

struct PlanNode;
using PlanPtr = std::shared_ptr<const PlanNode>;

enum class PlanKind { kScan, kFilter, kJoin, kAggregate };

/// Hash-build side hint for a join, set by the cost-based optimizer from
/// estimated cardinalities. kAuto lets the columnar engine build from the
/// smaller materialized side at runtime (the row oracle always ignores the
/// hint). Purely physical: results are bit-identical either way, since
/// every aggregate is exact and order-independent.
enum class BuildSide : uint8_t { kAuto, kLeft, kRight };

/// Count/Sum are the additive aggregates UPA's provenance machinery
/// supports end-to-end; Avg/Min/Max execute natively (plain runs) but
/// reject provenance options (per-record influence is not additive).
enum class AggKind { kCount, kSum, kAvg, kMin, kMax };

struct PlanNode {
  PlanKind kind = PlanKind::kScan;

  // kScan
  std::string table;

  // kFilter (child in `left`)
  ExprPtr predicate;

  // kJoin — equi-join on left_key = right_key (int64-keyed)
  PlanPtr left, right;
  std::string left_key, right_key;
  BuildSide build_side = BuildSide::kAuto;

  // kAggregate (child in `left`)
  AggKind agg = AggKind::kCount;
  ExprPtr agg_expr;  // summed expression for kSum
};

PlanPtr ScanPlan(std::string table);
PlanPtr FilterPlan(PlanPtr child, ExprPtr predicate);
PlanPtr JoinPlan(PlanPtr left, PlanPtr right, std::string left_key,
                 std::string right_key);
PlanPtr CountPlan(PlanPtr child);
PlanPtr SumPlan(PlanPtr child, ExprPtr expr);
PlanPtr AvgPlan(PlanPtr child, ExprPtr expr);
PlanPtr MinPlan(PlanPtr child, ExprPtr expr);
PlanPtr MaxPlan(PlanPtr child, ExprPtr expr);

/// Static shape of a plan — what FLEX looks at.
struct PlanStats {
  size_t num_joins = 0;
  size_t num_filters = 0;
  size_t num_scans = 0;
  bool has_aggregate = false;
  AggKind agg = AggKind::kCount;
  /// (table, column) pairs for each join side, in visit order.
  std::vector<std::pair<std::string, std::string>> join_columns;
  /// All scanned table names.
  std::vector<std::string> tables;
};

PlanStats AnalyzePlan(const PlanPtr& plan);

/// Number of Scan nodes of `table` under `plan` (nullptr → 0). Both engines
/// use this to validate the single-private-scan invariant and to decide
/// which subtrees are fully public (and therefore cacheable).
size_t CountScansOf(const PlanPtr& plan, const std::string& table);

/// One-line plan rendering, e.g.
/// "Count(Join(Filter(Scan(orders)), Scan(lineitem), o_orderkey=l_orderkey))"
std::string PlanToString(const PlanPtr& plan);

/// Structural fingerprint of a plan against a catalog: node kinds,
/// predicate/aggregate expressions (exact literal bits), join keys, and —
/// for scans — the *uid* of the resolved table. Keying caches on this
/// instead of PlanNode*/Table* addresses means a freed-and-reallocated
/// plan or table can never silently hit a stale entry (the address may be
/// recycled; a uid never is). Tables missing from the catalog hash by
/// name; execution fails on them before any cache is consulted.
uint64_t PlanFingerprint(const PlanPtr& plan, const Catalog& catalog);

/// Structural equality with PlanFingerprint's resolution, minus the
/// catalog: node kinds, table names, join keys and build sides, aggregate
/// kinds and expressions (ExprEquals). Confirms a fingerprint match, which
/// may collide; the caller compares table uids separately.
bool PlanEquals(const PlanPtr& a, const PlanPtr& b);

/// The table each join column belongs to is resolved structurally: the key
/// of a join side must come from a Scan under that side. Returns the table
/// name owning `column` under `plan`, or "" if ambiguous/unknown.
std::string OwningTable(const PlanPtr& plan, const std::string& column,
                        const Catalog& catalog);

}  // namespace upa::rel
