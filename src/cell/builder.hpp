// Circuit construction from expressions.
//
// build_from_expressions maps each output expression to a tree of 2-input
// differential gates (AND2 / OR2), sharing one cell master per
// (function, variant) pair. Complemented sub-expressions are free (rail
// swaps), so the NNF tree maps directly: literals become (possibly negated)
// signal references, AND/OR nodes become gates.
#pragma once

#include <vector>

#include "cell/circuit.hpp"

namespace sable {

/// Builds a multi-output circuit over `num_inputs` primary inputs. Each
/// expression becomes one circuit output (in order).
GateCircuit build_from_expressions(const std::vector<ExprPtr>& outputs,
                                   std::size_t num_inputs,
                                   NetworkVariant variant,
                                   const Technology& tech);

}  // namespace sable
