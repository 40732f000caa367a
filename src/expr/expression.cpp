#include "expr/expression.hpp"

#include <algorithm>
#include <set>

#include "util/error.hpp"

namespace sable {

VarId VarTable::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<VarId>(i);
  }
  names_.push_back(name);
  return static_cast<VarId>(names_.size() - 1);
}

const std::string& VarTable::name(VarId id) const {
  SABLE_ASSERT(id < names_.size(), "variable id out of range");
  return names_[id];
}

VarTable VarTable::alphabetic(std::size_t n) {
  VarTable t;
  for (std::size_t i = 0; i < n; ++i) {
    std::string name;
    if (n <= 26) {
      name.push_back(static_cast<char>('A' + i));
    } else {
      name = "x" + std::to_string(i);
    }
    t.intern(name);
  }
  return t;
}

bool Expr::is_literal() const {
  if (kind_ == ExprKind::kVar) return true;
  return kind_ == ExprKind::kNot && ops_[0]->kind() == ExprKind::kVar;
}

VarId Expr::var() const {
  SABLE_ASSERT(kind_ == ExprKind::kVar, "Expr::var on non-variable");
  return var_;
}

VarId Expr::literal_var() const {
  SABLE_ASSERT(is_literal(), "Expr::literal_var on non-literal");
  return kind_ == ExprKind::kVar ? var_ : ops_[0]->var();
}

bool Expr::literal_positive() const {
  SABLE_ASSERT(is_literal(), "Expr::literal_positive on non-literal");
  return kind_ == ExprKind::kVar;
}

ExprPtr Expr::constant(bool value) {
  // The two constants are shared singletons.
  static const ExprPtr kFalse(
      new Expr(ExprKind::kConst0, 0, {}));
  static const ExprPtr kTrue(
      new Expr(ExprKind::kConst1, 0, {}));
  return value ? kTrue : kFalse;
}

ExprPtr Expr::variable(VarId id) {
  return ExprPtr(new Expr(ExprKind::kVar, id, {}));
}

ExprPtr Expr::negate(ExprPtr e) {
  SABLE_ASSERT(e != nullptr, "negate of null expression");
  switch (e->kind()) {
    case ExprKind::kConst0:
      return constant(true);
    case ExprKind::kConst1:
      return constant(false);
    case ExprKind::kNot:
      return e->operands()[0];
    default:
      return ExprPtr(new Expr(ExprKind::kNot, 0, {std::move(e)}));
  }
}

ExprPtr Expr::make_nary(ExprKind kind, std::vector<ExprPtr> ops) {
  const bool is_and = kind == ExprKind::kAnd;
  const ExprPtr absorbing = Expr::constant(!is_and);  // 0 for AND, 1 for OR
  const ExprPtr neutral = Expr::constant(is_and);     // 1 for AND, 0 for OR

  std::vector<ExprPtr> flat;
  flat.reserve(ops.size());
  for (auto& op : ops) {
    SABLE_ASSERT(op != nullptr, "null operand in AND/OR");
    if (op->kind() == kind) {
      for (const auto& sub : op->operands()) flat.push_back(sub);
    } else if (op == absorbing) {
      return absorbing;
    } else if (op == neutral) {
      continue;  // dropped
    } else {
      flat.push_back(std::move(op));
    }
  }
  if (flat.empty()) return neutral;
  if (flat.size() == 1) return flat[0];
  return ExprPtr(new Expr(kind, 0, std::move(flat)));
}

ExprPtr Expr::conj(std::vector<ExprPtr> ops) {
  SABLE_REQUIRE(!ops.empty(), "conj requires at least one operand");
  return make_nary(ExprKind::kAnd, std::move(ops));
}

ExprPtr Expr::disj(std::vector<ExprPtr> ops) {
  SABLE_REQUIRE(!ops.empty(), "disj requires at least one operand");
  return make_nary(ExprKind::kOr, std::move(ops));
}

ExprPtr Expr::exclusive_or(ExprPtr a, ExprPtr b) {
  // a ^ b  =  a.b' + a'.b  — the canonical differential expansion.
  return disj2(conj2(a, negate(b)), conj2(negate(a), b));
}

ExprPtr Expr::conj2(ExprPtr a, ExprPtr b) {
  return conj({std::move(a), std::move(b)});
}

ExprPtr Expr::disj2(ExprPtr a, ExprPtr b) {
  return disj({std::move(a), std::move(b)});
}

std::size_t Expr::literal_count() const {
  if (is_literal()) return 1;
  std::size_t n = 0;
  for (const auto& op : ops_) n += op->literal_count();
  return n;
}

std::vector<VarId> Expr::variables() const {
  std::set<VarId> seen;
  // Iterative DFS to avoid building a lambda-recursion.
  std::vector<const Expr*> stack = {this};
  while (!stack.empty()) {
    const Expr* e = stack.back();
    stack.pop_back();
    if (e->kind() == ExprKind::kVar) {
      seen.insert(e->var_);
    } else {
      for (const auto& op : e->ops_) stack.push_back(op.get());
    }
  }
  return {seen.begin(), seen.end()};
}

}  // namespace sable
