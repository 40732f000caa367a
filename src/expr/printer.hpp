// Expression printing in the paper's notation: AND as '.', OR as ' + ',
// complement as a postfix apostrophe (stand-in for the overbar).
#pragma once

#include <string>

#include "expr/expression.hpp"

namespace sable {

/// Infix form, minimally parenthesized: "(A+B).(C+D)", "A.B' + B'".
std::string to_string(const ExprPtr& e, const VarTable& vars);

}  // namespace sable
