// Transistor-level representation of a differential pull-down network.
//
// A DPDN (Fig. 1 of the paper) is a network of NMOS switches between three
// external nodes:
//   X — the "true" module output  (pulled down when f = 1),
//   Y — the "false" module output (pulled down when f' = 1),
//   Z — the common node above the clocked foot transistor.
// Every other node is internal. Each switch is gated by a literal (an input
// signal or its complement); a pass gate (§5) is the parallel pair of
// switches gated by both polarities of the same signal, always conducting
// under a complementary input.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "expr/expression.hpp"

namespace sable {

using NodeId = std::uint32_t;

/// A signal literal: input variable `var`, true or complemented polarity.
struct SignalLiteral {
  VarId var = 0;
  bool positive = true;

  /// True when the switch gated by this literal conducts under `assignment`
  /// (bit k of `assignment` is the value of variable k).
  bool conducts(std::uint64_t assignment) const {
    const bool bit = (assignment >> var) & 1u;
    return bit == positive;
  }
  bool operator==(const SignalLiteral&) const = default;
};

/// Why a device is in the network: a logic switch realizes a literal of the
/// implemented function; a pass-gate half is one of the two dummy devices
/// inserted by the §5 enhancement.
enum class DeviceRole : std::uint8_t { kLogic, kPassGateHalf };

/// One NMOS switch between nodes `a` and `b`, gated by `gate`.
struct Switch {
  SignalLiteral gate;
  NodeId a = 0;
  NodeId b = 0;
  DeviceRole role = DeviceRole::kLogic;

  NodeId other(NodeId n) const { return n == a ? b : a; }
  bool touches(NodeId n) const { return a == n || b == n; }
};

/// Flat device-list network with the three fixed external nodes.
class DpdnNetwork {
 public:
  static constexpr NodeId kNodeX = 0;
  static constexpr NodeId kNodeY = 1;
  static constexpr NodeId kNodeZ = 2;

  /// Creates an empty network over input variables [0, num_vars).
  explicit DpdnNetwork(std::size_t num_vars);

  std::size_t num_vars() const { return num_vars_; }

  /// Adds an internal node; `name` defaults to "W<k>".
  NodeId add_internal_node(std::string name = {});

  /// Adds one switch. Node ids must exist; self-loops are rejected.
  void add_switch(SignalLiteral gate, NodeId a, NodeId b,
                  DeviceRole role = DeviceRole::kLogic);

  /// Adds the two parallel devices of a pass gate on signal `var`.
  void add_pass_gate(VarId var, NodeId a, NodeId b);

  std::size_t node_count() const { return names_.size(); }
  std::size_t internal_node_count() const { return names_.size() - 3; }
  const std::vector<Switch>& devices() const { return devices_; }
  std::size_t device_count() const { return devices_.size(); }
  /// Number of §5 dummy devices (each pass gate contributes two).
  std::size_t pass_gate_device_count() const;

  const std::string& node_name(NodeId n) const;
  bool is_external(NodeId n) const { return n <= kNodeZ; }

  /// All internal node ids.
  std::vector<NodeId> internal_nodes() const;

  /// Devices incident to each node (index = NodeId), built on demand.
  std::vector<std::vector<std::size_t>> adjacency() const;

  /// Human-readable netlist, one device per line.
  std::string to_string(const VarTable& vars) const;

 private:
  std::size_t num_vars_;
  std::vector<std::string> names_;  // [0]=X, [1]=Y, [2]=Z, then internals
  std::vector<Switch> devices_;
};

}  // namespace sable
