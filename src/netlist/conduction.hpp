// Conduction analysis of a DPDN under complementary input assignments.
//
// During the evaluation phase the inputs are complementary: variable k is
// exactly one of (1, 0), and its complement literal is the opposite. An
// assignment is encoded as a bitmask over VarIds. These queries answer
// which nodes are shorted together through conducting switches — the basis
// of every verification in the paper: functionality (X–Z conducts iff f),
// full connectivity (§3), and the discharge sets behind Fig. 3/4.
#pragma once

#include <cstdint>
#include <vector>

#include "expr/truth_table.hpp"
#include "netlist/network.hpp"
#include "netlist/union_find.hpp"

namespace sable {

/// Disjoint-set structure of nodes under one assignment.
UnionFind conduction_components(const DpdnNetwork& net,
                                std::uint64_t assignment);

/// True if `from` and `to` are connected through conducting switches.
bool conducts(const DpdnNetwork& net, std::uint64_t assignment, NodeId from,
              NodeId to);

/// Truth table of the conduction function between two nodes over all
/// 2^num_vars complementary assignments.
TruthTable conduction_function(const DpdnNetwork& net, NodeId from, NodeId to);

/// Per-node flag: connected to at least one external node (X, Y or Z) under
/// `assignment`. External nodes are trivially true.
std::vector<bool> connected_to_external(const DpdnNetwork& net,
                                        std::uint64_t assignment);

// ---- Bit-parallel (lane-word) conduction ----------------------------------
//
// A lane is one independent complementary assignment; lane L of
// `var_words[v]` holds the value of variable v under assignment L. All 64
// lanes of a std::uint64_t word are analyzed simultaneously with
// word-wide operations — the bit-parallel engine behind the batch
// simulators.

/// Per-device conduction mask: lane L of `out[d]` is set iff device d
/// conducts in lane L. `out` is resized to the device count.
void device_conduction_masks(const DpdnNetwork& net,
                             const std::vector<std::uint64_t>& var_words,
                             std::vector<std::uint64_t>& out);

/// Fixpoint closure of per-lane reachability. `reach` has one word per
/// node, pre-seeded with the source lanes; on return lane L of `reach[n]`
/// is set iff node n is connected to a seeded node in lane L through
/// devices whose `device_masks` lane L is set.
void propagate_conduction(const DpdnNetwork& net,
                          const std::vector<std::uint64_t>& device_masks,
                          std::vector<std::uint64_t>& reach);

/// Per-node lane words: bit L set iff the node is connected to an external
/// node (X, Y or Z) in lane L. The 64-lane form of connected_to_external.
std::vector<std::uint64_t> connected_to_external_batch(
    const DpdnNetwork& net, const std::vector<std::uint64_t>& var_words);

/// A structural conduction path: the device indices along a simple path.
struct ConductionPath {
  std::vector<std::size_t> device_indices;
  /// OR of literal requirements is contradiction-free: the path conducts for
  /// at least one complementary assignment.
  bool satisfiable = true;
  /// Distinct variables gating devices on the path (pass gates included).
  std::vector<VarId> variables;
};

/// Enumerates all simple paths from `from` to `to`. Contradictory paths
/// (requiring both polarities of one variable on logic switches) are marked
/// unsatisfiable but still returned. `max_paths` guards against explosion.
std::vector<ConductionPath> enumerate_paths(const DpdnNetwork& net,
                                            NodeId from, NodeId to,
                                            std::size_t max_paths = 100000);

/// Length (device count) of the shortest conducting path between two nodes
/// under `assignment`; returns SIZE_MAX when not connected. BFS over
/// conducting switches.
std::size_t shortest_conducting_path(const DpdnNetwork& net,
                                     std::uint64_t assignment, NodeId from,
                                     NodeId to);

}  // namespace sable
