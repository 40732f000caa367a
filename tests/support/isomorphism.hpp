// Network isomorphism up to internal-node renaming.
//
// Two DPDNs are the same circuit if one can be mapped onto the other by a
// bijection of internal nodes that preserves external nodes and maps every
// switch (gate literal, endpoints, role) onto a distinct switch. The test
// oracle behind "the synthesized FC network equals the Fig. 2 reference":
// it compares generated networks with reference schematics without
// depending on construction order.
#pragma once

#include "netlist/network.hpp"

namespace sable {

/// True when `a` and `b` are isomorphic as labelled multigraphs with
/// X, Y, Z fixed. Exponential in the worst case but the search is pruned
/// by degree/label signatures; gate-sized networks resolve instantly.
bool networks_isomorphic(const DpdnNetwork& a, const DpdnNetwork& b);

}  // namespace sable
