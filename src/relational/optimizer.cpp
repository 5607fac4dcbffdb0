#include "relational/optimizer.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "common/status.h"
#include "relational/card_est.h"
#include "relational/cost_model.h"

namespace upa::rel {
namespace {

void CollectColumns(const ExprPtr& expr, std::set<std::string>& out) {
  if (expr == nullptr) return;
  if (expr->kind() == Expr::Kind::kColumn) {
    out.insert(expr->column_name());
    return;
  }
  CollectColumns(expr->lhs(), out);
  CollectColumns(expr->rhs(), out);
}

void SplitInto(const ExprPtr& expr, std::vector<ExprPtr>& out) {
  if (expr->kind() == Expr::Kind::kBinary && expr->op() == BinOp::kAnd) {
    SplitInto(expr->lhs(), out);
    SplitInto(expr->rhs(), out);
    return;
  }
  out.push_back(expr);
}

ExprPtr Conjoin(const std::vector<ExprPtr>& conjuncts) {
  UPA_CHECK(!conjuncts.empty());
  ExprPtr e = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) e = And(e, conjuncts[i]);
  return e;
}

/// The set of columns the relation produced by `plan` exposes.
void OutputColumns(const PlanPtr& plan, const Catalog& catalog,
                   std::set<std::string>& out) {
  switch (plan->kind) {
    case PlanKind::kScan: {
      auto it = catalog.find(plan->table);
      if (it == catalog.end()) return;
      for (const auto& col : it->second->schema().columns()) {
        out.insert(col.name);
      }
      return;
    }
    case PlanKind::kFilter:
      OutputColumns(plan->left, catalog, out);
      return;
    case PlanKind::kJoin:
      OutputColumns(plan->left, catalog, out);
      OutputColumns(plan->right, catalog, out);
      return;
    case PlanKind::kAggregate:
      // An aggregate outputs a single anonymous scalar, not its child's
      // schema — it provides no columns a conjunct could reference.
      return;
  }
}

bool Covers(const std::set<std::string>& columns, const ExprPtr& conjunct) {
  std::set<std::string> needed;
  CollectColumns(conjunct, needed);
  return std::includes(columns.begin(), columns.end(), needed.begin(),
                       needed.end());
}

/// Pushes each conjunct as deep as possible into `plan`; conjuncts that
/// cannot be placed anywhere under this node are returned in `leftover`.
PlanPtr Sink(const PlanPtr& plan, const Catalog& catalog,
             std::vector<ExprPtr> conjuncts, std::vector<ExprPtr>& leftover) {
  switch (plan->kind) {
    case PlanKind::kScan: {
      std::set<std::string> cols;
      OutputColumns(plan, catalog, cols);
      std::vector<ExprPtr> applicable;
      for (const ExprPtr& c : conjuncts) {
        if (Covers(cols, c)) {
          applicable.push_back(c);
        } else {
          leftover.push_back(c);
        }
      }
      if (applicable.empty()) return plan;
      return FilterPlan(plan, Conjoin(applicable));
    }
    case PlanKind::kFilter: {
      // Merge this node's own conjuncts into the batch and recurse; the
      // child decides what it can absorb, the rest re-forms above.
      std::vector<ExprPtr> merged = std::move(conjuncts);
      SplitInto(plan->predicate, merged);
      std::vector<ExprPtr> child_leftover;
      PlanPtr child = Sink(plan->left, catalog, std::move(merged),
                           child_leftover);
      if (child_leftover.empty()) return child;
      // Conjuncts the child couldn't host: if this filter sits under a
      // join, they may still apply above — hand them upward.
      std::vector<ExprPtr> still_here;
      std::set<std::string> cols;
      OutputColumns(plan->left, catalog, cols);
      for (const ExprPtr& c : child_leftover) {
        if (Covers(cols, c)) {
          still_here.push_back(c);
        } else {
          leftover.push_back(c);
        }
      }
      if (still_here.empty()) return child;
      return FilterPlan(child, Conjoin(still_here));
    }
    case PlanKind::kJoin: {
      std::set<std::string> left_cols, right_cols;
      OutputColumns(plan->left, catalog, left_cols);
      OutputColumns(plan->right, catalog, right_cols);
      std::set<std::string> ambiguous;
      for (const std::string& c : left_cols) {
        if (right_cols.count(c) > 0) ambiguous.insert(c);
      }
      // Conjuncts touching a column BOTH sides provide must not sink into
      // either side: bare-name resolution would silently pick whichever
      // side is offered first. They stay at this join (where both
      // candidates are in scope) or bubble further up.
      std::vector<ExprPtr> sinkable, kept;
      for (ExprPtr& c : conjuncts) {
        std::set<std::string> needed;
        CollectColumns(c, needed);
        const bool touches_ambiguous =
            std::any_of(needed.begin(), needed.end(),
                        [&](const std::string& col) {
                          return ambiguous.count(col) > 0;
                        });
        (touches_ambiguous ? kept : sinkable).push_back(std::move(c));
      }
      std::vector<ExprPtr> left_leftover, right_leftover;
      PlanPtr left = Sink(plan->left, catalog, std::move(sinkable),
                          left_leftover);
      // Conjuncts the left side rejected get offered to the right side.
      PlanPtr right =
          Sink(plan->right, catalog, std::move(left_leftover),
               right_leftover);
      auto joined = std::make_shared<PlanNode>(*plan);
      joined->left = std::move(left);
      joined->right = std::move(right);
      // Whatever neither side could host — plus the ambiguity-pinned
      // conjuncts: applies here if this join's combined schema covers it,
      // else bubbles further up.
      std::set<std::string> cols = left_cols;
      cols.insert(right_cols.begin(), right_cols.end());
      for (ExprPtr& c : right_leftover) kept.push_back(std::move(c));
      std::vector<ExprPtr> here;
      for (const ExprPtr& c : kept) {
        if (Covers(cols, c)) {
          here.push_back(c);
        } else {
          leftover.push_back(c);
        }
      }
      if (here.empty()) return joined;
      return FilterPlan(joined, Conjoin(here));
    }
    case PlanKind::kAggregate: {
      // Opaque barrier: an aggregate's output is not its child's schema,
      // so no conjunct crosses it in either direction. Incoming conjuncts
      // bubble up; the subtree beneath restarts with a fresh batch and its
      // own leftovers re-attach directly beneath the aggregate.
      for (ExprPtr& c : conjuncts) leftover.push_back(std::move(c));
      std::vector<ExprPtr> inner;
      PlanPtr child = Sink(plan->left, catalog, {}, inner);
      if (!inner.empty()) child = FilterPlan(child, Conjoin(inner));
      if (child == plan->left) return plan;
      auto node = std::make_shared<PlanNode>(*plan);
      node->left = std::move(child);
      return node;
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// LiftFilters — the inverse rewrite (benchmark/differential baseline).
// ---------------------------------------------------------------------------

PlanPtr StripFilters(const PlanPtr& plan, std::vector<ExprPtr>& collected) {
  switch (plan->kind) {
    case PlanKind::kScan:
      return plan;
    case PlanKind::kFilter: {
      SplitInto(plan->predicate, collected);
      return StripFilters(plan->left, collected);
    }
    case PlanKind::kJoin: {
      auto node = std::make_shared<PlanNode>(*plan);
      node->left = StripFilters(plan->left, collected);
      node->right = StripFilters(plan->right, collected);
      return node;
    }
    case PlanKind::kAggregate: {
      // Aggregates are barriers for lifting too: filters beneath a nested
      // aggregate conjoin directly under it, never above.
      std::vector<ExprPtr> inner;
      PlanPtr child = StripFilters(plan->left, inner);
      if (!inner.empty()) child = FilterPlan(child, Conjoin(inner));
      auto node = std::make_shared<PlanNode>(*plan);
      node->left = std::move(child);
      return node;
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Join reordering: decompose → greedy rebuild → cost gate.
// ---------------------------------------------------------------------------

struct JoinGraph {
  struct BaseRel {
    PlanPtr plan;        // Filter*(Scan) subtree
    std::string table;   // the scanned table
  };
  struct RawEdge {
    std::string left_table, left_key;
    std::string right_table, right_key;
  };
  std::vector<BaseRel> rels;
  std::vector<RawEdge> raw_edges;
  std::vector<ExprPtr> upper;  // cross-table conjuncts lifted off the tree
};

bool ContainsJoin(const PlanPtr& plan) {
  if (plan == nullptr) return false;
  if (plan->kind == PlanKind::kJoin) return true;
  return ContainsJoin(plan->left) || ContainsJoin(plan->right);
}

/// Flattens an SPJ tree into base relations + join edges + lifted
/// cross-table conjuncts. Returns false on shapes reordering does not
/// handle (nested aggregates, unknown tables, unresolvable join keys) —
/// the caller then keeps the tree as-is.
bool DecomposeInto(const PlanPtr& plan, const Catalog& catalog,
                   JoinGraph& graph) {
  switch (plan->kind) {
    case PlanKind::kScan:
      graph.rels.push_back({plan, plan->table});
      return catalog.count(plan->table) > 0;
    case PlanKind::kFilter: {
      if (ContainsJoin(plan->left)) {
        // Cross-table filter: lift its conjuncts, reattach after reorder.
        SplitInto(plan->predicate, graph.upper);
        return DecomposeInto(plan->left, catalog, graph);
      }
      const PlanNode* p = plan.get();
      while (p->kind == PlanKind::kFilter) p = p->left.get();
      if (p->kind != PlanKind::kScan) return false;
      graph.rels.push_back({plan, p->table});
      return catalog.count(p->table) > 0;
    }
    case PlanKind::kJoin: {
      const std::string lt = OwningTable(plan->left, plan->left_key, catalog);
      const std::string rt =
          OwningTable(plan->right, plan->right_key, catalog);
      if (lt.empty() || rt.empty()) return false;
      if (!DecomposeInto(plan->left, catalog, graph)) return false;
      if (!DecomposeInto(plan->right, catalog, graph)) return false;
      graph.raw_edges.push_back({lt, plan->left_key, rt, plan->right_key});
      return true;
    }
    case PlanKind::kAggregate:
      // Nested aggregates are opaque; such trees keep their shape.
      return false;
  }
  return false;
}

/// Greedy Selinger-style reorder: start from the edge with the smallest
/// estimated join output, then repeatedly attach the connected relation
/// minimizing the estimated output of the next join. Returns nullptr when
/// the graph cannot be rebuilt (disconnected or unresolvable — both mean
/// "keep the original tree").
PlanPtr GreedyReorder(const JoinGraph& graph, const Catalog& catalog,
                      const CardinalityEstimator& est) {
  struct Edge {
    size_t a, b;
    std::string a_key, b_key;
  };
  const size_t n = graph.rels.size();
  std::map<std::string, size_t> rel_of_table;
  for (size_t i = 0; i < n; ++i) {
    // A table scanned twice makes bare-name key resolution ambiguous.
    if (!rel_of_table.emplace(graph.rels[i].table, i).second) return nullptr;
  }
  std::vector<Edge> edges;
  edges.reserve(graph.raw_edges.size());
  for (const JoinGraph::RawEdge& e : graph.raw_edges) {
    auto a = rel_of_table.find(e.left_table);
    auto b = rel_of_table.find(e.right_table);
    if (a == rel_of_table.end() || b == rel_of_table.end()) return nullptr;
    edges.push_back({a->second, b->second, e.left_key, e.right_key});
  }

  std::vector<double> rows(n);
  for (size_t i = 0; i < n; ++i) {
    rows[i] = est.EstimateRows(graph.rels[i].plan);
  }
  auto ndv_of = [&](size_t rel, const std::string& key) {
    auto it = catalog.find(graph.rels[rel].table);
    // A key absent from the table (a malformed plan the executor will
    // reject with a clean Status) must not abort here — estimate 0.
    return it != catalog.end() && it->second->schema().Has(key)
               ? static_cast<double>(it->second->DistinctCount(key))
               : 0.0;
  };
  auto join_out = [&](double lrows, double rrows, size_t arel,
                      const std::string& akey, size_t brel,
                      const std::string& bkey) {
    const double ndv = std::max(ndv_of(arel, akey), ndv_of(brel, bkey));
    return ndv > 0 ? lrows * rrows / ndv : lrows * rrows * 0.1;
  };

  constexpr size_t kNone = std::numeric_limits<size_t>::max();
  // Seed with the cheapest edge (deterministic: first minimum wins).
  size_t seed = kNone;
  double seed_out = std::numeric_limits<double>::infinity();
  for (size_t e = 0; e < edges.size(); ++e) {
    const double out = join_out(rows[edges[e].a], rows[edges[e].b],
                                edges[e].a, edges[e].a_key, edges[e].b,
                                edges[e].b_key);
    if (out < seed_out) {
      seed_out = out;
      seed = e;
    }
  }
  if (seed == kNone) return nullptr;

  std::vector<bool> in_tree(n, false), used(edges.size(), false);
  const Edge& e0 = edges[seed];
  // Smaller estimated side on the left (the engine probes with the larger
  // side; the build-side pass may still override with a hint).
  const bool a_left = rows[e0.a] <= rows[e0.b];
  const size_t first = a_left ? e0.a : e0.b;
  const size_t second = a_left ? e0.b : e0.a;
  PlanPtr tree = JoinPlan(graph.rels[first].plan, graph.rels[second].plan,
                          a_left ? e0.a_key : e0.b_key,
                          a_left ? e0.b_key : e0.a_key);
  in_tree[e0.a] = in_tree[e0.b] = true;
  used[seed] = true;
  double tree_rows = seed_out;
  size_t joined = 2;

  while (joined < n) {
    size_t best = kNone;
    double best_out = std::numeric_limits<double>::infinity();
    for (size_t e = 0; e < edges.size(); ++e) {
      if (used[e]) continue;
      const bool a_in = in_tree[edges[e].a], b_in = in_tree[edges[e].b];
      if (a_in == b_in) continue;
      const size_t tree_rel = a_in ? edges[e].a : edges[e].b;
      const size_t new_rel = a_in ? edges[e].b : edges[e].a;
      const std::string& tree_key = a_in ? edges[e].a_key : edges[e].b_key;
      const std::string& new_key = a_in ? edges[e].b_key : edges[e].a_key;
      const double out = join_out(tree_rows, rows[new_rel], tree_rel,
                                  tree_key, new_rel, new_key);
      if (out < best_out) {
        best_out = out;
        best = e;
      }
    }
    if (best == kNone) return nullptr;  // disconnected join graph
    const bool a_in = in_tree[edges[best].a];
    const size_t new_rel = a_in ? edges[best].b : edges[best].a;
    tree = JoinPlan(tree, graph.rels[new_rel].plan,
                    a_in ? edges[best].a_key : edges[best].b_key,
                    a_in ? edges[best].b_key : edges[best].a_key);
    in_tree[new_rel] = true;
    used[best] = true;
    tree_rows = best_out;
    ++joined;
  }
  return tree;
}

/// Reorders the join tree of a relation subtree (no root aggregate); the
/// reordered tree is kept only when the cost model prices it cheaper.
PlanPtr ReorderJoins(const PlanPtr& plan, const Catalog& catalog,
                     const CardinalityEstimator& est) {
  JoinGraph graph;
  if (!DecomposeInto(plan, catalog, graph)) return plan;
  if (graph.rels.size() < 3) return plan;  // ≤1 join: nothing to reorder
  PlanPtr tree = GreedyReorder(graph, catalog, est);
  if (tree == nullptr) return plan;
  if (!graph.upper.empty()) tree = FilterPlan(tree, Conjoin(graph.upper));
  tree = PushDownFilters(tree, catalog);
  const CostModel cost;
  return cost.PlanCost(tree, est) < cost.PlanCost(plan, est) ? tree : plan;
}

// ---------------------------------------------------------------------------
// Conjunct ordering + build-side hints.
// ---------------------------------------------------------------------------

/// Rebuilds each Filter with its conjuncts sorted by ascending estimated
/// selectivity: the most selective conjunct runs first, so later kernel
/// passes see fewer candidate rows. Well-typed predicates are pure, so
/// order never changes the selected set.
PlanPtr OrderConjunctsPass(const PlanPtr& plan,
                           const CardinalityEstimator& est) {
  switch (plan->kind) {
    case PlanKind::kScan:
      return plan;
    case PlanKind::kFilter: {
      PlanPtr child = OrderConjunctsPass(plan->left, est);
      std::vector<ExprPtr> conjuncts;
      SplitInto(plan->predicate, conjuncts);
      if (conjuncts.size() > 1) {
        std::vector<std::pair<double, ExprPtr>> ranked;
        ranked.reserve(conjuncts.size());
        for (const ExprPtr& c : conjuncts) {
          ranked.push_back({est.EstimateSelectivity(c, plan->left), c});
        }
        std::stable_sort(ranked.begin(), ranked.end(),
                         [](const auto& a, const auto& b) {
                           return a.first < b.first;
                         });
        for (size_t i = 0; i < ranked.size(); ++i) {
          conjuncts[i] = ranked[i].second;
        }
      }
      return FilterPlan(std::move(child), Conjoin(conjuncts));
    }
    case PlanKind::kJoin: {
      auto node = std::make_shared<PlanNode>(*plan);
      node->left = OrderConjunctsPass(plan->left, est);
      node->right = OrderConjunctsPass(plan->right, est);
      return node;
    }
    case PlanKind::kAggregate: {
      auto node = std::make_shared<PlanNode>(*plan);
      node->left = OrderConjunctsPass(plan->left, est);
      return node;
    }
  }
  return plan;
}

/// Sets BuildSide hints where estimates are decisive (≥2× apart). Joins
/// touching the private table keep kAuto: UPA's passes resize that side at
/// runtime in ways static estimates cannot see.
PlanPtr BuildSidePass(const PlanPtr& plan, const CardinalityEstimator& est,
                      const std::string& private_table) {
  switch (plan->kind) {
    case PlanKind::kScan:
      return plan;
    case PlanKind::kFilter:
    case PlanKind::kAggregate: {
      auto node = std::make_shared<PlanNode>(*plan);
      node->left = BuildSidePass(plan->left, est, private_table);
      return node;
    }
    case PlanKind::kJoin: {
      auto node = std::make_shared<PlanNode>(*plan);
      node->left = BuildSidePass(plan->left, est, private_table);
      node->right = BuildSidePass(plan->right, est, private_table);
      const bool touches_private =
          !private_table.empty() &&
          CountScansOf(plan, private_table) > 0;
      if (!touches_private) {
        const double l = est.EstimateRows(plan->left);
        const double r = est.EstimateRows(plan->right);
        if (l * 2 <= r) {
          node->build_side = BuildSide::kLeft;
        } else if (r * 2 <= l) {
          node->build_side = BuildSide::kRight;
        } else {
          node->build_side = BuildSide::kAuto;
        }
      } else {
        node->build_side = BuildSide::kAuto;
      }
      return node;
    }
  }
  return plan;
}

}  // namespace

PlanPtr PushDownFilters(const PlanPtr& plan, const Catalog& catalog) {
  UPA_CHECK(plan != nullptr);
  // Conjuncts that fit nowhere (e.g. unknown columns) re-attach at the
  // top, where execution reports the schema error as it would have before
  // optimization.
  std::vector<ExprPtr> leftover;
  PlanPtr optimized = Sink(plan, catalog, {}, leftover);
  return leftover.empty() ? optimized
                          : FilterPlan(optimized, Conjoin(leftover));
}

PlanPtr LiftFilters(const PlanPtr& plan) {
  UPA_CHECK(plan != nullptr);
  std::vector<ExprPtr> collected;
  PlanPtr stripped = StripFilters(plan, collected);
  return collected.empty() ? stripped
                           : FilterPlan(stripped, Conjoin(collected));
}

PlanPtr Optimize(const PlanPtr& plan, const Catalog& catalog,
                 const OptimizerOptions& options) {
  UPA_CHECK(plan != nullptr);
  if (plan->kind == PlanKind::kAggregate) {
    PlanPtr child = Optimize(plan->left, catalog, options);
    if (child == plan->left) return plan;
    auto n = std::make_shared<PlanNode>(*plan);
    n->left = std::move(child);
    return n;
  }
  const CardinalityEstimator est(&catalog);
  PlanPtr p = PushDownFilters(plan, catalog);
  p = ReorderJoins(p, catalog, est);
  p = OrderConjunctsPass(p, est);
  return BuildSidePass(p, est, options.private_table);
}

}  // namespace upa::rel
