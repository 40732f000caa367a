// Transient analysis: fixed-step backward-Euler integration with a damped
// Newton-Raphson solve per step and automatic step halving on
// non-convergence.
//
// Backward Euler is unconditionally stable and slightly lossy, which is the
// right trade for strongly nonlinear switching circuits: the energy numbers
// we extract integrate the supply current, which BE reproduces faithfully at
// the 1-2 ps steps used by the benches.
#pragma once

#include <map>
#include <string>

#include "spice/circuit.hpp"
#include "spice/waveform.hpp"

namespace sable::spice {

struct TransientOptions {
  double t_stop = 0.0;
  double dt = 2e-12;
  /// Initial node voltages by name (UIC); unlisted nodes start at 0 V.
  std::map<std::string, double> initial_voltages;
};

/// Runs a transient simulation from t = 0 to t_stop and records every
/// step. Every node has a 1 pS shunt to ground; a step that fails to
/// converge is halved, at most 10 times.
/// Throws Error if a step fails to converge even at the minimum step size.
TranResult run_transient(const Circuit& circuit,
                         const TransientOptions& options);

}  // namespace sable::spice
