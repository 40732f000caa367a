#include "spice/circuit.hpp"

#include "util/error.hpp"

namespace sable::spice {

SpiceNode Circuit::node(const std::string& name) {
  const auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  names_.push_back(name);
  const SpiceNode id = names_.size() - 1;
  index_.emplace(name, id);
  return id;
}

SpiceNode Circuit::find_node(const std::string& name) const {
  const auto it = index_.find(name);
  SABLE_REQUIRE(it != index_.end(), "unknown circuit node: " + name);
  return it->second;
}

const std::string& Circuit::node_name(SpiceNode n) const {
  SABLE_ASSERT(n < names_.size(), "node index out of range");
  return names_[n];
}

void Circuit::add_resistor(const std::string& a, const std::string& b,
                           double ohms) {
  SABLE_REQUIRE(ohms > 0.0, "resistance must be positive");
  resistors_.push_back(Resistor{node(a), node(b), ohms});
}

void Circuit::add_capacitor(const std::string& a, const std::string& b,
                            double farads) {
  SABLE_REQUIRE(farads > 0.0, "capacitance must be positive");
  capacitors_.push_back(Capacitor{node(a), node(b), farads});
}

void Circuit::add_vsource(const std::string& name, const std::string& positive,
                          const std::string& negative, Waveform waveform) {
  vsources_.push_back(
      VoltageSource{name, node(positive), node(negative), std::move(waveform)});
}

void Circuit::add_mosfet(const std::string& name, MosType type,
                         const std::string& drain, const std::string& gate,
                         const std::string& source,
                         const MosModelParams& params, double width,
                         double length) {
  SABLE_REQUIRE(width > 0.0 && length > 0.0,
                "MOSFET width and length must be positive");
  mosfets_.push_back(Mosfet{name, type, node(drain), node(gate), node(source),
                            params, width, length});
}

}  // namespace sable::spice
