#include "expr/transforms.hpp"

#include "util/error.hpp"

namespace sable {

namespace {

// Computes NNF of e (negated = false) or of !e (negated = true) in one pass.
ExprPtr nnf_impl(const ExprPtr& e, bool negated) {
  switch (e->kind()) {
    case ExprKind::kConst0:
      return Expr::constant(negated);
    case ExprKind::kConst1:
      return Expr::constant(!negated);
    case ExprKind::kVar:
      return negated ? Expr::negate(e) : e;
    case ExprKind::kNot:
      return nnf_impl(e->operands()[0], !negated);
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const bool is_and = e->kind() == ExprKind::kAnd;
      std::vector<ExprPtr> ops;
      ops.reserve(e->operands().size());
      for (const auto& op : e->operands()) ops.push_back(nnf_impl(op, negated));
      // De Morgan: a negated AND becomes an OR of negated operands.
      const bool result_and = is_and != negated;
      return result_and ? Expr::conj(std::move(ops))
                        : Expr::disj(std::move(ops));
    }
  }
  SABLE_UNREACHABLE("unreachable expression kind");
}

}  // namespace

ExprPtr to_nnf(const ExprPtr& e) { return nnf_impl(e, false); }

ExprPtr complement_nnf(const ExprPtr& e) { return nnf_impl(e, true); }

ExprPtr dual_nnf(const ExprPtr& e) {
  switch (e->kind()) {
    case ExprKind::kConst0:
      return Expr::constant(true);
    case ExprKind::kConst1:
      return Expr::constant(false);
    case ExprKind::kVar:
      return e;
    case ExprKind::kNot:
      SABLE_ASSERT(e->is_literal(), "dual_nnf requires NNF input");
      return e;
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      std::vector<ExprPtr> ops;
      ops.reserve(e->operands().size());
      for (const auto& op : e->operands()) ops.push_back(dual_nnf(op));
      return e->kind() == ExprKind::kAnd ? Expr::disj(std::move(ops))
                                         : Expr::conj(std::move(ops));
    }
  }
  SABLE_UNREACHABLE("unreachable expression kind");
}

ExprPtr cofactor(const ExprPtr& e, VarId v, bool value) {
  switch (e->kind()) {
    case ExprKind::kConst0:
    case ExprKind::kConst1:
      return e;
    case ExprKind::kVar:
      return e->var() == v ? Expr::constant(value) : e;
    case ExprKind::kNot:
      return Expr::negate(cofactor(e->operands()[0], v, value));
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      std::vector<ExprPtr> ops;
      ops.reserve(e->operands().size());
      for (const auto& op : e->operands()) ops.push_back(cofactor(op, v, value));
      return e->kind() == ExprKind::kAnd ? Expr::conj(std::move(ops))
                                         : Expr::disj(std::move(ops));
    }
  }
  SABLE_UNREACHABLE("unreachable expression kind");
}

bool structurally_equal(const ExprPtr& a, const ExprPtr& b) {
  if (a == b) return true;
  if (a->kind() != b->kind()) return false;
  if (a->kind() == ExprKind::kVar) return a->var() == b->var();
  const auto& ao = a->operands();
  const auto& bo = b->operands();
  if (ao.size() != bo.size()) return false;
  for (std::size_t i = 0; i < ao.size(); ++i) {
    if (!structurally_equal(ao[i], bo[i])) return false;
  }
  return true;
}

}  // namespace sable
