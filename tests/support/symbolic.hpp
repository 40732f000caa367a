// Symbolic (BDD-based) verification of differential pull-down networks.
//
// The conduction function between any two nodes of a switch network is the
// transitive closure of the edge-label Boolean matrix — computed here by
// Floyd-Warshall over the (OR, AND) semiring with BDD labels. The paper's
// checks then become canonical-form identities:
//   functionality:      reach(X,Z) == f,  reach(Y,Z) == f',  reach(X,Y) == 0
//   full connectivity:  for every internal n:
//                       reach(n,X) | reach(n,Y) | reach(n,Z) == 1 (tautology)
// No 2^n enumeration — the same verdicts as src/core's exhaustive checkers,
// but scaling to wide complex gates.
#pragma once

#include <vector>

#include "support/bdd.hpp"
#include "netlist/network.hpp"

namespace sable {

/// All-pairs conduction functions of a network. reach[u][v] is the BDD of
/// "u and v are connected through conducting switches".
class SymbolicConduction {
 public:
  SymbolicConduction(BddManager& manager, const DpdnNetwork& net);

  BddRef reach(NodeId u, NodeId v) const { return reach_[u][v]; }
  BddManager& manager() const { return *manager_; }

 private:
  BddManager* manager_;
  std::vector<std::vector<BddRef>> reach_;
};

struct SymbolicFunctionalityReport {
  bool ok = false;
  bool x_branch_matches = false;
  bool y_branch_matches = false;
  bool no_xy_short = false;
  /// A witness assignment for the first failed condition (valid if !ok).
  std::uint64_t counterexample = 0;
};

/// Symbolic equivalent of check_functionality().
SymbolicFunctionalityReport check_functionality_symbolic(
    BddManager& manager, const DpdnNetwork& net, const ExprPtr& f);

struct SymbolicConnectivityReport {
  bool fully_connected = false;
  /// First floating (node, assignment) witness when not fully connected.
  NodeId floating_node = 0;
  std::uint64_t counterexample = 0;
};

/// Symbolic equivalent of check_full_connectivity().
SymbolicConnectivityReport check_full_connectivity_symbolic(
    BddManager& manager, const DpdnNetwork& net);

}  // namespace sable
