#include "cell/wddl.hpp"

#include <algorithm>

namespace sable {

WddlCircuitSimBatch::WddlCircuitSimBatch(const GateCircuit& circuit,
                                         const Technology& tech,
                                         double mismatch, std::uint64_t seed)
    : circuit_(circuit), eval_(circuit), vdd_(tech.vdd) {
  Rng rng(seed);
  models_.reserve(circuit.gates().size());
  // Nominal rail load: one standard-cell output (junctions + fanout wire).
  const double nominal = 6e-15;
  for (std::size_t g = 0; g < circuit.gates().size(); ++g) {
    // Symmetric deterministic imbalance around the nominal value.
    const double delta = mismatch * (2.0 * rng.uniform() - 1.0);
    models_.push_back(WddlGateModel{nominal * (1.0 + delta),
                                    nominal * (1.0 - delta)});
  }
  // Cycle energy decomposes as (sum of false-rail loads) plus the
  // true/false delta of every gate whose true rail fired — the constant
  // base is hoisted so the per-cycle work is proportional to the firing
  // gates only. The per-level bases are the same decomposition restricted
  // to one topological level (cycle_sampled's rows).
  levels_ = gate_levels(circuit);
  for (std::size_t l : levels_) num_levels_ = std::max(num_levels_, l);
  base_level_.assign(num_levels_, 0.0);
  rail_delta_.reserve(models_.size());
  for (std::size_t g = 0; g < models_.size(); ++g) {
    const WddlGateModel& m = models_[g];
    const double e_false = m.c_false * vdd_ * vdd_;
    base_energy_ += e_false;
    base_level_[levels_[g] - 1] += e_false;
    rail_delta_.push_back(m.c_true * vdd_ * vdd_ - e_false);
  }
}

void WddlCircuitSimBatch::cycle(const std::vector<std::uint64_t>& input_words,
                                std::uint64_t lane_mask,
                                BatchCycleResult& out) {
  eval_.evaluate(input_words);
  lane_fill_selected(lane_mask, base_energy_, out.energy.data());
  for (std::size_t g = 0; g < circuit_.gates().size(); ++g) {
    // Exactly one rail rises from the precharge wave and is charged; only
    // lanes whose true rail fired carry this gate's rail delta.
    lane_add_delta(eval_.value_word(g) & lane_mask, rail_delta_[g],
                   out.energy.data());
  }
  out.output_words.resize(circuit_.outputs().size());
  for (std::size_t i = 0; i < circuit_.outputs().size(); ++i) {
    out.output_words[i] = eval_.output_word(i);
  }
}

void WddlCircuitSimBatch::cycle_sampled(
    const std::vector<std::uint64_t>& input_words, std::uint64_t lane_mask,
    SampledBatchCycleResult& out) {
  eval_.evaluate(input_words);
  out.level_energy.resize(num_levels_);
  for (std::size_t l = 0; l < num_levels_; ++l) {
    lane_fill_selected(lane_mask, base_level_[l],
                       out.level_energy[l].data());
  }
  for (std::size_t g = 0; g < circuit_.gates().size(); ++g) {
    lane_add_delta(eval_.value_word(g) & lane_mask, rail_delta_[g],
                   out.level_energy[levels_[g] - 1].data());
  }
  out.output_words.resize(circuit_.outputs().size());
  for (std::size_t i = 0; i < circuit_.outputs().size(); ++i) {
    out.output_words[i] = eval_.output_word(i);
  }
}

WddlCircuitSim::WddlCircuitSim(const GateCircuit& circuit,
                               const Technology& tech, double mismatch,
                               std::uint64_t seed)
    : batch_(circuit, tech, mismatch, seed),
      words_(circuit.num_primary_inputs(), 0) {}

CycleResult WddlCircuitSim::cycle(std::uint64_t input_bits) {
  pack_lane_words(&input_bits, 1, words_);
  batch_.cycle(words_, 1u, scratch_);
  return CycleResult{outputs_for_lane(scratch_.output_words, 0),
                     scratch_.energy[0]};
}

}  // namespace sable
