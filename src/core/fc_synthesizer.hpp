// The paper's primary contribution (§4.1): systematic synthesis of *fully
// connected* differential pull-down networks from a Boolean expression.
//
// The five-step procedure of §4.1 is implemented as a recursion over the
// NNF expression tree. A differential module D(f) spans three terminals
// (P = true-top, Q = false-top, R = bottom):
//
//   literal a :  switch a between P–R and switch a' between Q–R;
//
//   f = x.y  (case A):  fresh internal node W,
//       D(x) on (P, Q, W),  D(y) on (W, Q, R).
//     This is the paper's "transform x'+y' into x'.y + y', put network y at
//     the bottom of the x.y connection and share y between both branches":
//     the false branch becomes Q -x'- W -y- R  in parallel with  Q -y'- R.
//
//   f = x+y  (case B):  fresh internal node V,
//       D(x) on (P, Q, V),  D(y) on (P, V, R).
//     Dually, "transform x+y into x.y' + y and share network y'":
//     the true branch becomes P -x- V -y'- R  in parallel with  P -y- R.
//
// Steps 1-2 (identify x, y and complement) are the case split; step 3 (the
// OR transformation) is the terminal wiring; step 4 is the recursion; step 5
// (substitution) is the emission of sub-modules in place. N-ary AND/OR nodes
// are right-folded: (a.b.c) is treated as a.(b.c), keeping the first operand
// at the top exactly as the paper's design example orders devices.
//
// The resulting network satisfies the §3 property: for every complementary
// input assignment, every internal node is connected to X, Y or Z — checked
// exhaustively by check_full_connectivity().
//
// synthesize_enhanced_dpdn (core/enhancer.hpp) runs the same recursion with
// the §5 enhancement applied during construction: wherever a branch would let a discharge path skip the
// variables of a sibling sub-network (the shared-bottom short-cuts above),
// a chain of pass gates over exactly those variables is inserted, so every
// satisfiable discharge path is controlled by every gate input once. For
// expressions where each variable occurs once per branch (all examples in
// the paper), this yields a constant evaluation depth equal to the number
// of inputs, eliminating early propagation (Fig. 6).
#pragma once

#include "expr/expression.hpp"
#include "netlist/network.hpp"

namespace sable {

/// Synthesizes the fully connected DPDN of `f` (any expression; it is
/// normalized to NNF first). Throws InvalidArgument for constant functions.
DpdnNetwork synthesize_fc_dpdn(const ExprPtr& f, std::size_t num_vars);

}  // namespace sable
