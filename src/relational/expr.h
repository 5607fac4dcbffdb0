// Scalar expression trees (the SparkSQL expression subset the evaluated
// TPC-H queries need) and their compilation against a Schema.
//
// Expressions reference columns by name; Bind() resolves names to positions
// once and returns a closure evaluated per row — the executor never does
// name lookups in its inner loops.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "relational/schema.h"
#include "relational/value.h"

namespace upa::rel {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

enum class BinOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

std::string BinOpName(BinOp op);

class Expr {
 public:
  enum class Kind { kColumn, kLiteral, kBinary, kNot, kInSet };

  // -- Factories ----------------------------------------------------------
  static ExprPtr Column(std::string name);
  static ExprPtr Literal(Value v);
  static ExprPtr Binary(BinOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Not(ExprPtr inner);
  /// `lhs IN (set...)`.
  static ExprPtr InSet(ExprPtr lhs, std::vector<Value> set);

  Kind kind() const { return kind_; }
  const std::string& column_name() const { return column_name_; }
  const Value& literal() const { return literal_; }
  BinOp op() const { return op_; }
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }
  const std::vector<Value>& set() const { return set_; }

  std::string ToString() const;

 private:
  Expr() = default;

  Kind kind_ = Kind::kLiteral;
  std::string column_name_;
  Value literal_ = int64_t{0};
  BinOp op_ = BinOp::kAdd;
  ExprPtr lhs_, rhs_;
  std::vector<Value> set_;
};

/// A compiled expression: evaluate against one row.
using BoundExpr = std::function<Value(const Row&)>;

/// Compile `expr` against `schema`. Aborts on unknown columns.
/// Boolean results are int64 0/1.
BoundExpr Bind(const ExprPtr& expr, const Schema& schema);

/// Compile and require a boolean-ish predicate (any numeric non-zero is
/// true).
std::function<bool(const Row&)> BindPredicate(const ExprPtr& expr,
                                              const Schema& schema);

/// Compile and require a numeric result.
std::function<double(const Row&)> BindNumeric(const ExprPtr& expr,
                                              const Schema& schema);

/// True if every column the expression references exists in the schema
/// (nullptr expressions trivially qualify).
bool ExprColumnsExist(const ExprPtr& expr, const Schema& schema);

/// Structural fingerprint: kind, operators, column names and *exact*
/// literal bit patterns (not the lossy ToString rendering). Structurally
/// equal trees always collide; unequal literals never do. Used for
/// plan-cache keys, where pointer identity is unsafe (a freed-and-
/// reallocated Expr could alias a stale entry).
uint64_t ExprFingerprint(const ExprPtr& expr);

/// Structural equality with the same resolution as ExprFingerprint: kinds,
/// operators, column names and exact literal bits (so 1 and 1.0 differ, as
/// do 0.0 and -0.0). Confirms a fingerprint match, which may collide.
bool ExprEquals(const ExprPtr& a, const ExprPtr& b);

// -- Terse builder helpers (the query-definition DSL) ----------------------
inline ExprPtr Col(std::string name) { return Expr::Column(std::move(name)); }
inline ExprPtr Lit(int64_t v) { return Expr::Literal(Value{v}); }
inline ExprPtr Lit(double v) { return Expr::Literal(Value{v}); }
inline ExprPtr Lit(const char* v) { return Expr::Literal(Value{std::string(v)}); }
inline ExprPtr Lit(std::string v) { return Expr::Literal(Value{std::move(v)}); }
inline ExprPtr Add(ExprPtr a, ExprPtr b) { return Expr::Binary(BinOp::kAdd, std::move(a), std::move(b)); }
inline ExprPtr Sub(ExprPtr a, ExprPtr b) { return Expr::Binary(BinOp::kSub, std::move(a), std::move(b)); }
inline ExprPtr Mul(ExprPtr a, ExprPtr b) { return Expr::Binary(BinOp::kMul, std::move(a), std::move(b)); }
inline ExprPtr Div(ExprPtr a, ExprPtr b) { return Expr::Binary(BinOp::kDiv, std::move(a), std::move(b)); }
inline ExprPtr Eq(ExprPtr a, ExprPtr b) { return Expr::Binary(BinOp::kEq, std::move(a), std::move(b)); }
inline ExprPtr Ne(ExprPtr a, ExprPtr b) { return Expr::Binary(BinOp::kNe, std::move(a), std::move(b)); }
inline ExprPtr Lt(ExprPtr a, ExprPtr b) { return Expr::Binary(BinOp::kLt, std::move(a), std::move(b)); }
inline ExprPtr Le(ExprPtr a, ExprPtr b) { return Expr::Binary(BinOp::kLe, std::move(a), std::move(b)); }
inline ExprPtr Gt(ExprPtr a, ExprPtr b) { return Expr::Binary(BinOp::kGt, std::move(a), std::move(b)); }
inline ExprPtr Ge(ExprPtr a, ExprPtr b) { return Expr::Binary(BinOp::kGe, std::move(a), std::move(b)); }
inline ExprPtr And(ExprPtr a, ExprPtr b) { return Expr::Binary(BinOp::kAnd, std::move(a), std::move(b)); }
inline ExprPtr Or(ExprPtr a, ExprPtr b) { return Expr::Binary(BinOp::kOr, std::move(a), std::move(b)); }
inline ExprPtr Not(ExprPtr a) { return Expr::Not(std::move(a)); }
inline ExprPtr In(ExprPtr a, std::vector<Value> set) {
  return Expr::InSet(std::move(a), std::move(set));
}

}  // namespace upa::rel
