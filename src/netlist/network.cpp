#include "netlist/network.hpp"

#include "util/error.hpp"

namespace sable {

DpdnNetwork::DpdnNetwork(std::size_t num_vars) : num_vars_(num_vars) {
  names_ = {"X", "Y", "Z"};
}

NodeId DpdnNetwork::add_internal_node(std::string name) {
  if (name.empty()) {
    name = "W" + std::to_string(internal_node_count() + 1);
  }
  names_.push_back(std::move(name));
  return static_cast<NodeId>(names_.size() - 1);
}

void DpdnNetwork::add_switch(SignalLiteral gate, NodeId a, NodeId b,
                             DeviceRole role) {
  SABLE_REQUIRE(a < names_.size() && b < names_.size(),
                "switch endpoint does not exist");
  SABLE_REQUIRE(a != b, "switch endpoints must differ");
  SABLE_REQUIRE(gate.var < num_vars_, "switch gate variable out of range");
  devices_.push_back(Switch{gate, a, b, role});
}

void DpdnNetwork::add_pass_gate(VarId var, NodeId a, NodeId b) {
  add_switch(SignalLiteral{var, true}, a, b, DeviceRole::kPassGateHalf);
  add_switch(SignalLiteral{var, false}, a, b, DeviceRole::kPassGateHalf);
}

std::size_t DpdnNetwork::pass_gate_device_count() const {
  std::size_t n = 0;
  for (const auto& d : devices_) {
    if (d.role == DeviceRole::kPassGateHalf) ++n;
  }
  return n;
}

const std::string& DpdnNetwork::node_name(NodeId n) const {
  SABLE_ASSERT(n < names_.size(), "node id out of range");
  return names_[n];
}

std::vector<NodeId> DpdnNetwork::internal_nodes() const {
  std::vector<NodeId> out;
  for (NodeId n = 3; n < names_.size(); ++n) out.push_back(n);
  return out;
}

std::vector<std::vector<std::size_t>> DpdnNetwork::adjacency() const {
  std::vector<std::vector<std::size_t>> adj(node_count());
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    adj[devices_[i].a].push_back(i);
    adj[devices_[i].b].push_back(i);
  }
  return adj;
}

std::string DpdnNetwork::to_string(const VarTable& vars) const {
  std::string out;
  for (const auto& d : devices_) {
    out += "  ";
    out += vars.name(d.gate.var);
    if (!d.gate.positive) out += '\'';
    out += ": ";
    out += node_name(d.a);
    out += " -- ";
    out += node_name(d.b);
    if (d.role == DeviceRole::kPassGateHalf) out += "  [pass-gate]";
    out += '\n';
  }
  return out;
}

}  // namespace sable
