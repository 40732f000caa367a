// DC operating point via Newton-Raphson with gmin stepping.
// Capacitors are open circuits; sources take their t = 0 values. It runs on
// the transient analysis's Newton core (spice/transient.cpp).
#pragma once

#include <vector>

#include "spice/circuit.hpp"

namespace sable::spice {

struct DcResult {
  /// Node voltages indexed by SpiceNode (ground included as 0.0).
  std::vector<double> node_voltage;
  /// Branch currents per voltage source (into the + terminal).
  std::vector<double> source_current;
  bool converged = false;
};

DcResult dc_operating_point(const Circuit& circuit);

}  // namespace sable::spice
