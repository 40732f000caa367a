// Structural transforms on expressions: negation-normal form and
// complement. These implement "step 0" and "step 2" of the paper's design
// procedure (§4.1): bringing f into NNF and deriving the complementary
// output f'.
#pragma once

#include "expr/expression.hpp"

namespace sable {

/// Negation-normal form: complements pushed onto variables via De Morgan.
ExprPtr to_nnf(const ExprPtr& e);

/// NNF of the complement f'. Equivalent to to_nnf(negate(e)).
ExprPtr complement_nnf(const ExprPtr& e);

}  // namespace sable
