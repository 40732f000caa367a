#include "cell/wddl.hpp"

namespace sable {

WddlCircuitSimBatch::WddlCircuitSimBatch(const GateCircuit& circuit,
                                         const Technology& tech,
                                         double mismatch, std::uint64_t seed)
    : eval_(circuit) {
  // Nominal rail load: one standard-cell output (junctions + fanout wire).
  const double nominal = 6e-15;
  const double vdd = tech.vdd;
  Rng rng(seed);
  // Cycle energy decomposes as (sum of false-rail loads) plus the
  // true/false delta of every gate whose true rail fired — the constant
  // base is hoisted so the per-cycle work is proportional to the firing
  // gates only. The per-level bases are the same decomposition restricted
  // to one topological level (cycle_sampled's rows).
  base_level_.assign(eval_.num_levels(), 0.0);
  rail_delta_.reserve(eval_.num_gates());
  for (std::size_t g = 0; g < eval_.num_gates(); ++g) {
    // Symmetric deterministic imbalance around the nominal value: the
    // true rail carries c_true, the false rail c_false.
    const double delta = mismatch * (2.0 * rng.uniform() - 1.0);
    const double c_true = nominal * (1.0 + delta);
    const double c_false = nominal * (1.0 - delta);
    const double e_false = c_false * vdd * vdd;
    base_energy_ += e_false;
    base_level_[eval_.level(g) - 1] += e_false;
    rail_delta_.push_back(c_true * vdd * vdd - e_false);
  }
}

template <typename RowFn>
void WddlCircuitSimBatch::gate_loop(
    const std::vector<std::uint64_t>& input_words, std::uint64_t lane_mask,
    RowFn&& row_for_gate, std::vector<std::uint64_t>& output_words) {
  eval_.evaluate(input_words);
  for (std::size_t g = 0; g < eval_.num_gates(); ++g) {
    // Exactly one rail rises from the precharge wave and is charged; only
    // lanes whose true rail fired carry this gate's rail delta.
    lane_add_delta(eval_.value_word(g) & lane_mask, rail_delta_[g],
                   row_for_gate(g));
  }
  eval_.output_words(output_words);
}

// The scalar row starts from base_energy_, the false-rail energies summed
// in gate order; the per-level bases summed would round differently.
void WddlCircuitSimBatch::cycle(const std::vector<std::uint64_t>& input_words,
                                std::uint64_t lane_mask,
                                BatchCycleResult& out) {
  lane_fill_selected(lane_mask, base_energy_, out.energy.data());
  gate_loop(input_words, lane_mask,
            [&](std::size_t) { return out.energy.data(); }, out.output_words);
}

void WddlCircuitSimBatch::cycle_sampled(
    const std::vector<std::uint64_t>& input_words, std::uint64_t lane_mask,
    SampledBatchCycleResult& out) {
  out.level_energy.resize(eval_.num_levels());
  for (std::size_t l = 0; l < out.level_energy.size(); ++l) {
    lane_fill_selected(lane_mask, base_level_[l],
                       out.level_energy[l].data());
  }
  gate_loop(input_words, lane_mask,
            [&](std::size_t g) {
              return out.level_energy[eval_.level(g) - 1].data();
            },
            out.output_words);
}

}  // namespace sable
