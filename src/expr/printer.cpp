#include "expr/printer.hpp"

#include "util/error.hpp"

namespace sable {

namespace {

// Precedence: OR lowest (1), AND (2), NOT/atom (3). A child is
// parenthesized when its precedence is lower than the context's.
int precedence(const Expr& e) {
  switch (e.kind()) {
    case ExprKind::kOr:
      return 1;
    case ExprKind::kAnd:
      return 2;
    default:
      return 3;
  }
}

void print(const ExprPtr& e, const VarTable& vars, int context_prec,
           std::string& out) {
  const int prec = precedence(*e);
  const bool paren = prec < context_prec;
  if (paren) out += '(';
  switch (e->kind()) {
    case ExprKind::kConst0:
      out += '0';
      break;
    case ExprKind::kConst1:
      out += '1';
      break;
    case ExprKind::kVar:
      out += vars.name(e->var());
      break;
    case ExprKind::kNot: {
      const auto& sub = e->operands()[0];
      if (sub->is_var() || sub->is_const()) {
        print(sub, vars, 3, out);
      } else {
        out += '(';
        print(sub, vars, 0, out);
        out += ')';
      }
      out += '\'';
      break;
    }
    case ExprKind::kAnd: {
      bool first = true;
      for (const auto& op : e->operands()) {
        if (!first) out += '.';
        print(op, vars, prec, out);
        first = false;
      }
      break;
    }
    case ExprKind::kOr: {
      bool first = true;
      for (const auto& op : e->operands()) {
        if (!first) out += " + ";
        print(op, vars, prec, out);
        first = false;
      }
      break;
    }
  }
  if (paren) out += ')';
}

}  // namespace

std::string to_string(const ExprPtr& e, const VarTable& vars) {
  std::string out;
  print(e, vars, 0, out);
  return out;
}

}  // namespace sable
