#include "relational/expr.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/status.h"

namespace upa::rel {

std::string BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kEq: return "=";
    case BinOp::kNe: return "!=";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kAnd: return "AND";
    case BinOp::kOr: return "OR";
  }
  return "?";
}

ExprPtr Expr::Column(std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kColumn;
  e->column_name_ = std::move(name);
  return e;
}

ExprPtr Expr::Literal(Value v) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kLiteral;
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Expr::Binary(BinOp op, ExprPtr lhs, ExprPtr rhs) {
  UPA_CHECK(lhs != nullptr && rhs != nullptr);
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kBinary;
  e->op_ = op;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

ExprPtr Expr::Not(ExprPtr inner) {
  UPA_CHECK(inner != nullptr);
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kNot;
  e->lhs_ = std::move(inner);
  return e;
}

ExprPtr Expr::InSet(ExprPtr lhs, std::vector<Value> set) {
  UPA_CHECK(lhs != nullptr);
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kInSet;
  e->lhs_ = std::move(lhs);
  e->set_ = std::move(set);
  return e;
}

std::string Expr::ToString() const {
  switch (kind_) {
    case Kind::kColumn:
      return column_name_;
    case Kind::kLiteral:
      return rel::ToString(literal_);
    case Kind::kBinary:
      return "(" + lhs_->ToString() + " " + BinOpName(op_) + " " +
             rhs_->ToString() + ")";
    case Kind::kNot:
      return "NOT " + lhs_->ToString();
    case Kind::kInSet: {
      std::string out = lhs_->ToString() + " IN (";
      for (size_t i = 0; i < set_.size(); ++i) {
        if (i > 0) out += ", ";
        out += rel::ToString(set_[i]);
      }
      return out + ")";
    }
  }
  return "?";
}

namespace {

bool Truthy(const Value& v) {
  UPA_CHECK_MSG(IsNumeric(v), "predicate evaluated to a string");
  return AsNumeric(v) != 0.0;
}

Value EvalBinary(BinOp op, const Value& a, const Value& b) {
  switch (op) {
    case BinOp::kAdd:
      return Value{AsNumeric(a) + AsNumeric(b)};
    case BinOp::kSub:
      return Value{AsNumeric(a) - AsNumeric(b)};
    case BinOp::kMul:
      return Value{AsNumeric(a) * AsNumeric(b)};
    case BinOp::kDiv: {
      double d = AsNumeric(b);
      UPA_CHECK_MSG(d != 0.0, "division by zero in expression");
      return Value{AsNumeric(a) / d};
    }
    case BinOp::kEq:
      return Value{int64_t{ValueEquals(a, b) ? 1 : 0}};
    case BinOp::kNe:
      return Value{int64_t{ValueEquals(a, b) ? 0 : 1}};
    case BinOp::kLt:
      return Value{int64_t{Compare(a, b) < 0 ? 1 : 0}};
    case BinOp::kLe:
      return Value{int64_t{Compare(a, b) <= 0 ? 1 : 0}};
    case BinOp::kGt:
      return Value{int64_t{Compare(a, b) > 0 ? 1 : 0}};
    case BinOp::kGe:
      return Value{int64_t{Compare(a, b) >= 0 ? 1 : 0}};
    case BinOp::kAnd:
      return Value{int64_t{(Truthy(a) && Truthy(b)) ? 1 : 0}};
    case BinOp::kOr:
      return Value{int64_t{(Truthy(a) || Truthy(b)) ? 1 : 0}};
  }
  UPA_CHECK_MSG(false, "unknown binary op");
  return Value{int64_t{0}};
}

}  // namespace

BoundExpr Bind(const ExprPtr& expr, const Schema& schema) {
  UPA_CHECK(expr != nullptr);
  switch (expr->kind()) {
    case Expr::Kind::kColumn: {
      size_t idx = schema.IndexOf(expr->column_name());
      return [idx](const Row& row) { return row[idx]; };
    }
    case Expr::Kind::kLiteral: {
      Value v = expr->literal();
      return [v](const Row&) { return v; };
    }
    case Expr::Kind::kBinary: {
      BoundExpr lhs = Bind(expr->lhs(), schema);
      BoundExpr rhs = Bind(expr->rhs(), schema);
      BinOp op = expr->op();
      // Short-circuit AND/OR (keeps Filter cheap on selective predicates).
      if (op == BinOp::kAnd) {
        return [lhs, rhs](const Row& row) {
          if (!Truthy(lhs(row))) return Value{int64_t{0}};
          return Value{int64_t{Truthy(rhs(row)) ? 1 : 0}};
        };
      }
      if (op == BinOp::kOr) {
        return [lhs, rhs](const Row& row) {
          if (Truthy(lhs(row))) return Value{int64_t{1}};
          return Value{int64_t{Truthy(rhs(row)) ? 1 : 0}};
        };
      }
      return [op, lhs, rhs](const Row& row) {
        return EvalBinary(op, lhs(row), rhs(row));
      };
    }
    case Expr::Kind::kNot: {
      BoundExpr inner = Bind(expr->lhs(), schema);
      return [inner](const Row& row) {
        return Value{int64_t{Truthy(inner(row)) ? 0 : 1}};
      };
    }
    case Expr::Kind::kInSet: {
      BoundExpr lhs = Bind(expr->lhs(), schema);
      std::vector<Value> set = expr->set();
      return [lhs, set](const Row& row) {
        Value v = lhs(row);
        for (const Value& s : set) {
          if (ValueEquals(v, s)) return Value{int64_t{1}};
        }
        return Value{int64_t{0}};
      };
    }
  }
  UPA_CHECK_MSG(false, "unknown expr kind");
  return {};
}

std::function<bool(const Row&)> BindPredicate(const ExprPtr& expr,
                                              const Schema& schema) {
  BoundExpr bound = Bind(expr, schema);
  return [bound](const Row& row) { return Truthy(bound(row)); };
}

std::function<double(const Row&)> BindNumeric(const ExprPtr& expr,
                                              const Schema& schema) {
  BoundExpr bound = Bind(expr, schema);
  return [bound](const Row& row) { return AsNumeric(bound(row)); };
}

bool ExprColumnsExist(const ExprPtr& expr, const Schema& schema) {
  if (expr == nullptr) return true;
  if (expr->kind() == Expr::Kind::kColumn) {
    return schema.Has(expr->column_name());
  }
  return ExprColumnsExist(expr->lhs(), schema) &&
         ExprColumnsExist(expr->rhs(), schema);
}

namespace {

uint64_t ValueFingerprint(const Value& v) {
  if (const int64_t* i = std::get_if<int64_t>(&v)) {
    return Mix64(0x1a7'0000ULL ^ static_cast<uint64_t>(*i));
  }
  if (const double* d = std::get_if<double>(&v)) {
    uint64_t bits;
    __builtin_memcpy(&bits, d, sizeof(bits));
    return Mix64(0xd0b'0000ULL ^ bits);
  }
  return Mix64(0x57e'0000ULL ^ Fnv1a(std::get<std::string>(v)));
}

bool ValueBitsEqual(const Value& a, const Value& b) {
  if (const double* x = std::get_if<double>(&a)) {
    const double* y = std::get_if<double>(&b);
    return y != nullptr &&
           std::bit_cast<uint64_t>(*x) == std::bit_cast<uint64_t>(*y);
  }
  return a == b;
}

}  // namespace

uint64_t ExprFingerprint(const ExprPtr& expr) {
  if (expr == nullptr) return 0x90f1'90f1ULL;
  uint64_t h = Mix64(0xe00'0000ULL + static_cast<uint64_t>(expr->kind()));
  switch (expr->kind()) {
    case Expr::Kind::kColumn:
      return HashCombine(h, Fnv1a(expr->column_name()));
    case Expr::Kind::kLiteral:
      return HashCombine(h, ValueFingerprint(expr->literal()));
    case Expr::Kind::kBinary:
      h = HashCombine(h, static_cast<uint64_t>(expr->op()));
      h = HashCombine(h, ExprFingerprint(expr->lhs()));
      return HashCombine(h, ExprFingerprint(expr->rhs()));
    case Expr::Kind::kNot:
      return HashCombine(h, ExprFingerprint(expr->lhs()));
    case Expr::Kind::kInSet: {
      h = HashCombine(h, ExprFingerprint(expr->lhs()));
      for (const Value& v : expr->set()) {
        h = HashCombine(h, ValueFingerprint(v));
      }
      return h;
    }
  }
  return h;
}

bool ExprEquals(const ExprPtr& a, const ExprPtr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr || a->kind() != b->kind()) return false;
  switch (a->kind()) {
    case Expr::Kind::kColumn:
      return a->column_name() == b->column_name();
    case Expr::Kind::kLiteral:
      return ValueBitsEqual(a->literal(), b->literal());
    case Expr::Kind::kBinary:
      return a->op() == b->op() && ExprEquals(a->lhs(), b->lhs()) &&
             ExprEquals(a->rhs(), b->rhs());
    case Expr::Kind::kNot:
      return ExprEquals(a->lhs(), b->lhs());
    case Expr::Kind::kInSet:
      return ExprEquals(a->lhs(), b->lhs()) &&
             std::equal(a->set().begin(), a->set().end(), b->set().begin(),
                        b->set().end(), ValueBitsEqual);
  }
  return false;
}

}  // namespace upa::rel
