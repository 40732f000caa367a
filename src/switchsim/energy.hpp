// Per-gate energy profiling and the standard balancedness metrics.
//
// NED (normalized energy deviation) = (Emax - Emin) / Emax and
// NSD (normalized standard deviation) = sigma_E / mean_E are the figures of
// merit used throughout the SABL literature to quantify how data-dependent
// a gate's consumption is; a perfectly constant-power gate scores 0 on both.
#pragma once

#include <cstdint>
#include <vector>

#include "power/stats.hpp"
#include "switchsim/cycle_sim.hpp"

namespace sable {

struct EnergyProfile {
  /// Energy per complementary input assignment [J], index = assignment.
  std::vector<double> energy_per_input;
  /// Min, max, mean, stddev, NED and NSD of energy_per_input.
  SpreadMetrics spread;
};

/// Exhaustive per-input energy profile of one gate. Each input is measured
/// in steady state (a warm-up cycle with the same input precedes the
/// measured cycle, so held charge on floating nodes is accounted for).
EnergyProfile profile_gate_energy(const DpdnNetwork& net,
                                  const GateEnergyModel& model);

/// Energy trace over an input sequence, starting from all-charged state.
std::vector<double> energy_trace(const DpdnNetwork& net,
                                 const GateEnergyModel& model,
                                 const std::vector<std::uint64_t>& inputs);

}  // namespace sable
