#include "cell/circuit_sim.hpp"

#include <algorithm>
#include <bit>

#include "expr/truth_table.hpp"
#include "util/error.hpp"

namespace sable {

std::vector<bool> evaluate_gates(const GateCircuit& circuit,
                                 std::uint64_t input_bits) {
  std::vector<bool> value(circuit.gates().size(), false);
  auto resolve = [&](const SignalRef& ref) {
    const bool raw = ref.kind == SignalRef::Kind::kInput
                         ? ((input_bits >> ref.index) & 1u) != 0
                         : value[ref.index];
    return raw == ref.positive;
  };
  for (std::size_t g = 0; g < circuit.gates().size(); ++g) {
    const GateInstance& inst = circuit.gates()[g];
    const Cell& cell = circuit.cells()[inst.cell_index];
    std::uint64_t assignment = 0;
    for (std::size_t k = 0; k < inst.inputs.size(); ++k) {
      if (resolve(inst.inputs[k])) assignment |= std::uint64_t{1} << k;
    }
    value[g] = evaluate(cell.function, assignment);
  }
  return value;
}

namespace {

std::uint64_t collect_outputs(const GateCircuit& circuit,
                              std::uint64_t input_bits,
                              const std::vector<bool>& gate_values) {
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < circuit.outputs().size(); ++i) {
    const SignalRef& ref = circuit.outputs()[i];
    const bool raw = ref.kind == SignalRef::Kind::kInput
                         ? ((input_bits >> ref.index) & 1u) != 0
                         : gate_values[ref.index];
    if (raw == ref.positive) out |= std::uint64_t{1} << i;
  }
  return out;
}

}  // namespace

std::vector<std::size_t> gate_levels(const GateCircuit& circuit) {
  std::vector<std::size_t> levels(circuit.gates().size(), 1);
  for (std::size_t g = 0; g < circuit.gates().size(); ++g) {
    for (const auto& in : circuit.gates()[g].inputs) {
      if (in.kind == SignalRef::Kind::kGate) {
        levels[g] = std::max(levels[g], levels[in.index] + 1);
      }
    }
  }
  return levels;
}

// ---- BatchGateEvaluator ---------------------------------------------------

BatchGateEvaluator::BatchGateEvaluator(const GateCircuit& circuit)
    : circuit_(circuit) {
  minterms_.resize(circuit.gates().size());
  gate_inputs_.resize(circuit.gates().size());
  values_.assign(circuit.gates().size(), 0);
  primary_.assign(circuit.num_primary_inputs(), 0);
  levels_ = gate_levels(circuit);
  for (std::size_t l : levels_) num_levels_ = std::max(num_levels_, l);
  for (std::size_t g = 0; g < circuit.gates().size(); ++g) {
    const GateInstance& inst = circuit.gates()[g];
    const Cell& cell = circuit.cells()[inst.cell_index];
    gate_inputs_[g].assign(inst.inputs.size(), 0);
    const std::size_t rows = std::size_t{1} << cell.num_inputs;
    for (std::size_t m = 0; m < rows; ++m) {
      // Qualified: the member evaluate() shadows the truth-table helper.
      if (sable::evaluate(cell.function, m)) {
        minterms_[g].push_back(static_cast<std::uint8_t>(m));
      }
    }
  }
}

void BatchGateEvaluator::evaluate(
    const std::vector<std::uint64_t>& input_words) {
  SABLE_ASSERT(input_words.size() >= circuit_.num_primary_inputs(),
               "one lane word per primary input required");
  for (std::size_t i = 0; i < primary_.size(); ++i) {
    primary_[i] = input_words[i];
  }
  for (std::size_t g = 0; g < circuit_.gates().size(); ++g) {
    const GateInstance& inst = circuit_.gates()[g];
    std::vector<std::uint64_t>& in = gate_inputs_[g];
    for (std::size_t k = 0; k < inst.inputs.size(); ++k) {
      const SignalRef& ref = inst.inputs[k];
      const std::uint64_t raw = ref.kind == SignalRef::Kind::kInput
                                    ? primary_[ref.index]
                                    : values_[ref.index];
      in[k] = ref.positive ? raw : ~raw;
    }
    // Sum of minterms over lane words: a lane is 1 iff its cell-input
    // assignment is one of the function's satisfying rows.
    std::uint64_t value = 0;
    for (const std::uint8_t m : minterms_[g]) {
      std::uint64_t term = ~std::uint64_t{0};
      for (std::size_t k = 0; k < in.size(); ++k) {
        term &= ((m >> k) & 1u) != 0 ? in[k] : ~in[k];
      }
      value |= term;
    }
    values_[g] = value;
  }
}

void BatchGateEvaluator::output_words(
    std::vector<std::uint64_t>& words) const {
  words.resize(circuit_.outputs().size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    const SignalRef& ref = circuit_.outputs()[i];
    const std::uint64_t raw = ref.kind == SignalRef::Kind::kInput
                                  ? primary_[ref.index]
                                  : values_[ref.index];
    words[i] = ref.positive ? raw : ~raw;
  }
}

std::uint64_t outputs_for_lane(const std::vector<std::uint64_t>& output_words,
                               std::size_t lane) {
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < output_words.size(); ++i) {
    if (((output_words[i] >> lane) & 1u) != 0) out |= std::uint64_t{1} << i;
  }
  return out;
}

// ---- DifferentialCircuitSimBatch ------------------------------------------

namespace {

// Every gate instance's cell model, the default per-instance models.
std::vector<GateEnergyModel> cell_energy_models(const GateCircuit& circuit) {
  std::vector<GateEnergyModel> models;
  models.reserve(circuit.gates().size());
  for (const auto& inst : circuit.gates()) {
    models.push_back(circuit.cells()[inst.cell_index].energy_model);
  }
  return models;
}

}  // namespace

DifferentialCircuitSimBatch::DifferentialCircuitSimBatch(
    const GateCircuit& circuit)
    : DifferentialCircuitSimBatch(circuit, cell_energy_models(circuit)) {}

DifferentialCircuitSimBatch::DifferentialCircuitSimBatch(
    const GateCircuit& circuit, std::vector<GateEnergyModel> models)
    : eval_(circuit) {
  SABLE_REQUIRE(models.size() == circuit.gates().size(),
                "one energy model per gate instance required");
  gate_sims_.reserve(circuit.gates().size());
  for (std::size_t g = 0; g < circuit.gates().size(); ++g) {
    const Cell& cell = circuit.cells()[circuit.gates()[g].cell_index];
    gate_sims_.emplace_back(cell.network, std::move(models[g]));
  }
}

template <typename RowFn>
void DifferentialCircuitSimBatch::gate_loop(
    const std::vector<std::uint64_t>& input_words, std::uint64_t lane_mask,
    RowFn&& row_for_gate, std::vector<std::uint64_t>& output_words) {
  eval_.evaluate(input_words);
  for (std::size_t g = 0; g < gate_sims_.size(); ++g) {
    gate_sims_[g].cycle(eval_.gate_input_words(g), lane_mask,
                        gate_energy_.data());
    lane_accumulate_selected(lane_mask, gate_energy_.data(), row_for_gate(g));
  }
  eval_.output_words(output_words);
}

void DifferentialCircuitSimBatch::cycle(
    const std::vector<std::uint64_t>& input_words, std::uint64_t lane_mask,
    BatchCycleResult& out) {
  lane_fill_selected(lane_mask, 0.0, out.energy.data());
  gate_loop(input_words, lane_mask,
            [&](std::size_t) { return out.energy.data(); }, out.output_words);
}

void DifferentialCircuitSimBatch::cycle_sampled(
    const std::vector<std::uint64_t>& input_words, std::uint64_t lane_mask,
    SampledBatchCycleResult& out) {
  out.level_energy.resize(eval_.num_levels());
  for (auto& row : out.level_energy) {
    lane_fill_selected(lane_mask, 0.0, row.data());
  }
  gate_loop(input_words, lane_mask,
            [&](std::size_t g) {
              return out.level_energy[eval_.level(g) - 1].data();
            },
            out.output_words);
}

void DifferentialCircuitSimBatch::reset() {
  for (SablGateSimBatch& sim : gate_sims_) sim.reset(true);
}

// ---- CmosCircuitSimBatch --------------------------------------------------

CmosCircuitSimBatch::CmosCircuitSimBatch(const GateCircuit& circuit,
                                         double switch_energy)
    : eval_(circuit),
      switch_energy_(switch_energy),
      previous_values_(circuit.gates().size(), 0) {}

template <typename RowFn>
void CmosCircuitSimBatch::gate_loop(
    const std::vector<std::uint64_t>& input_words, std::uint64_t lane_mask,
    RowFn&& row_for_gate, std::vector<std::uint64_t>& output_words) {
  eval_.evaluate(input_words);
  // Word-parallel rise counts (carry-save vertical counters): plane p
  // holds bit p of each lane's count of gates that rose in the current run
  // of same-row gates, so a gate costs a few word ops instead of a walk
  // over its rising lanes. A run lands in its row once, as count *
  // switch_energy_, for the selected lanes only: other lanes never rise
  // and their energy slots stay untouched.
  std::uint64_t planes[64];
  std::size_t num_planes = 0;
  double* current_row = nullptr;
  const auto flush = [&] {
    if (num_planes == 0) return;  // also before the first gate
    for (std::uint64_t rest = lane_mask; rest != 0; rest &= rest - 1) {
      const int lane = std::countr_zero(rest);
      std::uint64_t count = 0;
      for (std::size_t p = 0; p < num_planes; ++p) {
        count |= ((planes[p] >> lane) & 1u) << p;
      }
      current_row[lane] += static_cast<double>(count) * switch_energy_;
    }
    num_planes = 0;
  };
  for (std::size_t g = 0; g < eval_.num_gates(); ++g) {
    double* row = row_for_gate(g);
    if (row != current_row) {
      flush();
      current_row = row;
    }
    // Static CMOS draws supply energy when the output rises from 0; a lane
    // without history holds 0 for every gate, so its first cycle counts
    // every gate at 1. Selected lanes then remember their new value.
    const std::uint64_t c = eval_.value_word(g);
    const std::uint64_t prev = previous_values_[g];
    std::uint64_t carry = c & ~prev & lane_mask;
    previous_values_[g] = (c & lane_mask) | (prev & ~lane_mask);
    for (std::size_t p = 0; carry != 0; ++p) {
      if (p == num_planes) {
        planes[num_planes++] = carry;
        break;
      }
      const std::uint64_t overflow = planes[p] & carry;
      planes[p] ^= carry;
      carry = overflow;
    }
  }
  flush();
  eval_.output_words(output_words);
}

void CmosCircuitSimBatch::cycle(const std::vector<std::uint64_t>& input_words,
                                std::uint64_t lane_mask,
                                BatchCycleResult& out) {
  lane_fill_selected(lane_mask, 0.0, out.energy.data());
  gate_loop(input_words, lane_mask,
            [&](std::size_t) { return out.energy.data(); }, out.output_words);
}

void CmosCircuitSimBatch::cycle_sampled(
    const std::vector<std::uint64_t>& input_words, std::uint64_t lane_mask,
    SampledBatchCycleResult& out) {
  out.level_energy.resize(eval_.num_levels());
  for (auto& row : out.level_energy) {
    lane_fill_selected(lane_mask, 0.0, row.data());
  }
  gate_loop(input_words, lane_mask,
            [&](std::size_t g) {
              return out.level_energy[eval_.level(g) - 1].data();
            },
            out.output_words);
}

void CmosCircuitSimBatch::reset() {
  std::fill(previous_values_.begin(), previous_values_.end(), 0);
}

std::uint64_t evaluate_circuit(const GateCircuit& circuit,
                               std::uint64_t input_bits) {
  const std::vector<bool> values = evaluate_gates(circuit, input_bits);
  return collect_outputs(circuit, input_bits, values);
}

}  // namespace sable
