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

}  // namespace sable
