#include "support/symbolic.hpp"

#include "expr/transforms.hpp"
#include "util/error.hpp"

namespace sable {

SymbolicConduction::SymbolicConduction(BddManager& manager,
                                       const DpdnNetwork& net)
    : manager_(&manager) {
  const std::size_t n = net.node_count();
  reach_.assign(n, std::vector<BddRef>(n, BddManager::kFalse));
  for (std::size_t u = 0; u < n; ++u) reach_[u][u] = BddManager::kTrue;

  // Direct edges: OR of the gate literals of all parallel switches.
  for (const auto& d : net.devices()) {
    const BddRef lit = d.gate.positive ? manager.var(d.gate.var)
                                       : manager.nvar(d.gate.var);
    reach_[d.a][d.b] = manager.apply_or(reach_[d.a][d.b], lit);
    reach_[d.b][d.a] = reach_[d.a][d.b];
  }

  // Floyd-Warshall over the Boolean path semiring.
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t u = 0; u < n; ++u) {
      if (reach_[u][k] == BddManager::kFalse) continue;
      for (std::size_t v = u + 1; v < n; ++v) {
        const BddRef via =
            manager.apply_and(reach_[u][k], reach_[k][v]);
        reach_[u][v] = manager.apply_or(reach_[u][v], via);
        reach_[v][u] = reach_[u][v];
      }
    }
  }
}

SymbolicFunctionalityReport check_functionality_symbolic(
    BddManager& manager, const DpdnNetwork& net, const ExprPtr& f) {
  const SymbolicConduction cond(manager, net);
  const BddRef f_bdd = manager.from_expr(f);
  const BddRef fx = cond.reach(DpdnNetwork::kNodeX, DpdnNetwork::kNodeZ);
  const BddRef fy = cond.reach(DpdnNetwork::kNodeY, DpdnNetwork::kNodeZ);
  const BddRef fxy = cond.reach(DpdnNetwork::kNodeX, DpdnNetwork::kNodeY);

  SymbolicFunctionalityReport report;
  report.x_branch_matches = fx == f_bdd;
  report.y_branch_matches = fy == manager.negate(f_bdd);
  report.no_xy_short = fxy == BddManager::kFalse;
  report.ok = report.x_branch_matches && report.y_branch_matches &&
              report.no_xy_short;
  if (!report.ok) {
    // Produce one witness assignment from whichever check failed first.
    BddRef diff = BddManager::kFalse;
    if (!report.x_branch_matches) {
      diff = manager.apply_xor(fx, f_bdd);
    } else if (!report.y_branch_matches) {
      diff = manager.apply_xor(fy, manager.negate(f_bdd));
    } else {
      diff = fxy;
    }
    report.counterexample = manager.any_sat(diff);
  }
  return report;
}

SymbolicConnectivityReport check_full_connectivity_symbolic(
    BddManager& manager, const DpdnNetwork& net) {
  const SymbolicConduction cond(manager, net);
  SymbolicConnectivityReport report;
  report.fully_connected = true;
  for (NodeId n : net.internal_nodes()) {
    BddRef connected = cond.reach(n, DpdnNetwork::kNodeX);
    connected =
        manager.apply_or(connected, cond.reach(n, DpdnNetwork::kNodeY));
    connected =
        manager.apply_or(connected, cond.reach(n, DpdnNetwork::kNodeZ));
    if (connected != BddManager::kTrue) {
      report.fully_connected = false;
      report.floating_node = n;
      report.counterexample = manager.any_sat(manager.negate(connected));
      return report;
    }
  }
  return report;
}

}  // namespace sable
