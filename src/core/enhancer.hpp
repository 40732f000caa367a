// §5: enhanced fully connected DPDNs.
//
// The enhancement inserts pass gates ("dummy transistors") so that every
// discharge path is controlled by every input signal. Consequences (paper):
//   1. the evaluation depth — and hence the discharge resistance — is
//      independent of the input event;
//   2. early propagation is eliminated: no evaluation can start before all
//      inputs are stable and complementary.
//
// Guarantees of this implementation:
//   - For expressions where each branch reads every variable at most once
//     per path (all paper examples; any factored read-once function), every
//     satisfiable discharge path has exactly num_vars devices.
//   - For arbitrary functions, use synthesize_enhanced_from_table(): the
//     function is first minimized to sum-of-products form; the enhanced
//     recursion then yields a constant depth equal to the total literal
//     count of the cover (every true path pads the cubes it skips, every
//     false path crosses every cube's false network once).
#pragma once

#include "core/fc_synthesizer.hpp"
#include "expr/truth_table.hpp"
#include "netlist/network.hpp"

namespace sable {

/// Enhanced FC-DPDN from an expression (§5 pass-gate insertion during the
/// §4.1 recursion, which core/fc_synthesizer.cpp runs for both entry
/// points).
DpdnNetwork synthesize_enhanced_dpdn(const ExprPtr& f, std::size_t num_vars);

/// Enhanced FC-DPDN with guaranteed constant evaluation depth for an
/// arbitrary function given as a truth table (minimize to SOP, then build).
DpdnNetwork synthesize_enhanced_from_table(const TruthTable& f);

}  // namespace sable
