#include "switchsim/energy.hpp"

#include <algorithm>

namespace sable {

EnergyProfile profile_gate_energy(const DpdnNetwork& net,
                                  const GateEnergyModel& model) {
  EnergyProfile profile;
  const std::size_t rows = std::size_t{1} << net.num_vars();
  profile.energy_per_input.assign(rows, 0.0);
  // Bit-parallel: up to 64 assignments per batch cycle, lane L of a chunk
  // simulating assignment base + L. Per lane the arithmetic matches the
  // scalar simulator exactly.
  constexpr std::size_t kLanes = SablGateSimBatch::kLanes;
  std::vector<std::uint64_t> var_words(net.num_vars(), 0);
  double energy[kLanes];
  for (std::size_t base = 0; base < rows; base += kLanes) {
    const std::size_t lanes = std::min(kLanes, rows - base);
    const std::uint64_t mask = lane_mask(lanes);
    std::uint64_t assignments[kLanes];
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      assignments[lane] = base + lane;
    }
    pack_lane_words(assignments, lanes, var_words);
    SablGateSimBatch sim(net, model);
    sim.cycle(var_words, mask, energy);  // warm-up: settle held charge
    sim.cycle(var_words, mask, energy);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      profile.energy_per_input[base + lane] = energy[lane];
    }
  }
  profile.spread = spread_metrics(profile.energy_per_input);
  return profile;
}

std::vector<double> energy_trace(const DpdnNetwork& net,
                                 const GateEnergyModel& model,
                                 const std::vector<std::uint64_t>& inputs) {
  SablGateSim sim(net, model);
  std::vector<double> trace;
  trace.reserve(inputs.size());
  for (std::uint64_t a : inputs) trace.push_back(sim.cycle(a));
  return trace;
}

}  // namespace sable
