// Cycle-based simulation of gate-level circuits with per-gate energy.
//
// Two simulators share the circuit description:
//  - DifferentialCircuitSim: every gate is a dynamic differential (SABL)
//    gate simulated at switch level; per-cycle energy is the sum of gate
//    energies, and floating-node state persists across cycles (the genuine
//    variant leaks data through it).
//  - CmosCircuitSim: the industry-baseline model — static CMOS gates
//    consume C*VDD^2 on every 0->1 output transition (Hamming-distance
//    leakage); this is the reference DPA-vulnerable implementation.
//
// Each simulator is a *Batch class that evaluates 64 independent circuit
// instances bit-parallel (lane L of every std::uint64_t word is instance
// L); the scalar names alias its width-1 case, ScalarCircuitSim. Lane
// arithmetic is ordered so that lane L of a batch cycle is bit-identical
// to a width-1 run fed the same assignment sequence.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "cell/circuit.hpp"
#include "switchsim/cycle_sim.hpp"

namespace sable {

struct CycleResult {
  std::uint64_t outputs = 0;  // bit i = value of circuit output i
  double energy = 0.0;        // supply energy of the cycle [J]
};

/// Time-resolved variant: one energy sample per logic level (gates at the
/// same topological depth switch together), the granularity a sampling
/// oscilloscope sees in a real DPA measurement.
struct SampledCycleResult {
  std::uint64_t outputs = 0;
  std::vector<double> level_energy;
};

/// Topological level of every gate (primary inputs are level 0; a gate is
/// one past its deepest input). Returned per gate instance.
std::vector<std::size_t> gate_levels(const GateCircuit& circuit);

/// Bit-parallel functional evaluation of a gate circuit: computes the
/// 64-lane value word of every gate in one forward sweep.
/// `input_words[i]` lane L is primary input i of circuit instance L; gate
/// functions are applied as sum-of-minterms over the lane words. It also
/// carries what every energy model needs of the circuit's shape: the gate
/// count, each gate's logic level and the depth.
class BatchGateEvaluator {
 public:
  explicit BatchGateEvaluator(const GateCircuit& circuit);

  /// Evaluates every gate for the 64 assignments in `input_words`.
  void evaluate(const std::vector<std::uint64_t>& input_words);

  /// Lane word of gate g's output value (valid after evaluate()).
  std::uint64_t value_word(std::size_t gate) const { return values_[gate]; }

  /// Lane words of gate g's cell inputs, polarity already resolved — the
  /// per-variable assignment words the switch-level gate model consumes.
  const std::vector<std::uint64_t>& gate_input_words(std::size_t gate) const {
    return gate_inputs_[gate];
  }

  /// One lane word per circuit output into `words` (valid after
  /// evaluate()).
  void output_words(std::vector<std::uint64_t>& words) const;

  std::size_t num_gates() const { return values_.size(); }
  /// Gate g's topological level (gate_levels()), 1-based.
  std::size_t level(std::size_t gate) const { return levels_[gate]; }
  /// The circuit's logic depth: its deepest gate level (0 without gates).
  std::size_t num_levels() const { return num_levels_; }

 private:
  const GateCircuit& circuit_;
  std::vector<std::vector<std::uint8_t>> minterms_;  // per gate: rows = 1
  std::vector<std::vector<std::uint64_t>> gate_inputs_;
  std::vector<std::uint64_t> values_;
  std::vector<std::uint64_t> primary_;
  std::vector<std::size_t> levels_;
  std::size_t num_levels_ = 0;
};

/// Per-lane results of one batched cycle.
struct BatchCycleResult {
  /// Lane word per circuit output: lane L = output i of instance L.
  std::vector<std::uint64_t> output_words;
  /// Supply energy of instance L in energy[L] (selected lanes only).
  std::array<double, 64> energy;
};

/// Batched time-resolved results: level_energy[l][L] is the energy drawn
/// at logic level l by instance L.
struct SampledBatchCycleResult {
  std::vector<std::uint64_t> output_words;
  std::vector<std::array<double, 64>> level_energy;
};

/// Collapses per-output lane words into the scalar output bitmask of one
/// lane — the width-1 adapter's view of a batch result.
std::uint64_t outputs_for_lane(const std::vector<std::uint64_t>& output_words,
                               std::size_t lane);

// Every batch simulator below runs one private gate loop: it evaluates the
// circuit, adds gate g's energy into the row row_for_gate(g) returns, in
// gate order, and copies the output words. cycle() is that loop with every
// gate on one row; cycle_sampled() puts gate g on row level(g) - 1. Each
// simulator evaluates 64 lanes (lane_mask selects which) and writes only
// the selected lanes' energy slots.

class DifferentialCircuitSimBatch {
 public:
  explicit DifferentialCircuitSimBatch(const GateCircuit& circuit);

  /// As above, but with one energy model per gate *instance* (e.g. with
  /// per-instance routing loads from src/balance).
  DifferentialCircuitSimBatch(const GateCircuit& circuit,
                              std::vector<GateEnergyModel> models);

  /// Evaluates one clock cycle of every lane in `lane_mask`.
  void cycle(const std::vector<std::uint64_t>& input_words,
             std::uint64_t lane_mask, BatchCycleResult& out);

  /// As cycle(), with the energy split per logic level.
  void cycle_sampled(const std::vector<std::uint64_t>& input_words,
                     std::uint64_t lane_mask, SampledBatchCycleResult& out);

  /// Restores the fresh-construction state (every node charged) in every
  /// lane, so a new campaign starts from a reproducible state.
  void reset();

  std::size_t num_levels() const { return eval_.num_levels(); }

 private:
  template <typename RowFn>
  void gate_loop(const std::vector<std::uint64_t>& input_words,
                 std::uint64_t lane_mask, RowFn&& row_for_gate,
                 std::vector<std::uint64_t>& output_words);

  BatchGateEvaluator eval_;
  std::vector<SablGateSimBatch> gate_sims_;  // one per gate instance
  std::array<double, 64> gate_energy_;
};

class CmosCircuitSimBatch {
 public:
  /// `switch_energy` is the energy of one output 0->1 transition [J].
  CmosCircuitSimBatch(const GateCircuit& circuit, double switch_energy);

  /// One cycle per selected lane; each lane carries its own previous-value
  /// history (Hamming-distance leakage is per instance).
  void cycle(const std::vector<std::uint64_t>& input_words,
             std::uint64_t lane_mask, BatchCycleResult& out);

  /// As cycle(), with the energy split per logic level (a gate's
  /// transition energy lands in its topological level's row) — the
  /// baseline-style counterpart of the differential sim's time-resolved
  /// sampling.
  void cycle_sampled(const std::vector<std::uint64_t>& input_words,
                     std::uint64_t lane_mask, SampledBatchCycleResult& out);

  /// Clears every lane's transition history (fresh-construction state).
  void reset();

  /// Samples per cycle_sampled() row: the circuit's logic depth.
  std::size_t num_levels() const { return eval_.num_levels(); }

 private:
  // Also advances the lane history exactly once. Rising gates are counted
  // per lane in call-local carry-save planes, and each run of gates
  // sharing a row adds its count times switch_energy_ once.
  template <typename RowFn>
  void gate_loop(const std::vector<std::uint64_t>& input_words,
                 std::uint64_t lane_mask, RowFn&& row_for_gate,
                 std::vector<std::uint64_t>& output_words);

  BatchGateEvaluator eval_;
  double switch_energy_;
  // Per gate, the value each lane held on its last selected cycle (0
  // before its first).
  std::vector<std::uint64_t> previous_values_;
};

/// Width-1 adapter: one circuit instance carried in lane 0 of a batch
/// simulator (pack lane 0, cycle, unpack). The scalar simulators are its
/// aliases, so lane L of a batch cycle is bit-identical to a scalar run
/// fed the same assignment sequence.
template <typename Batch>
class ScalarCircuitSim {
 public:
  /// Forwards to the batch simulator's constructor.
  template <typename... Args>
  explicit ScalarCircuitSim(const GateCircuit& circuit, Args&&... args)
      : batch_(circuit, std::forward<Args>(args)...),
        words_(circuit.num_primary_inputs(), 0) {}

  /// Evaluates one clock cycle with the given primary input bits.
  CycleResult cycle(std::uint64_t input_bits) {
    pack_lane_words(&input_bits, 1, words_);
    batch_.cycle(words_, 1u, scratch_);
    return CycleResult{outputs_for_lane(scratch_.output_words, 0),
                       scratch_.energy[0]};
  }

  /// As cycle(), with the energy split per logic level.
  SampledCycleResult cycle_sampled(std::uint64_t input_bits) {
    pack_lane_words(&input_bits, 1, words_);
    batch_.cycle_sampled(words_, 1u, sampled_scratch_);
    SampledCycleResult result;
    result.outputs = outputs_for_lane(sampled_scratch_.output_words, 0);
    for (const auto& row : sampled_scratch_.level_energy) {
      result.level_energy.push_back(row[0]);
    }
    return result;
  }

  /// Number of logic levels (= samples per cycle).
  std::size_t num_levels() const { return batch_.num_levels(); }

 private:
  Batch batch_;
  std::vector<std::uint64_t> words_;
  BatchCycleResult scratch_;
  SampledBatchCycleResult sampled_scratch_;
};

using DifferentialCircuitSim = ScalarCircuitSim<DifferentialCircuitSimBatch>;
using CmosCircuitSim = ScalarCircuitSim<CmosCircuitSimBatch>;

/// Scalar value of every gate (in gate order) for one input vector — the
/// per-lane reference the batch evaluator is checked against.
std::vector<bool> evaluate_gates(const GateCircuit& circuit,
                                 std::uint64_t input_bits);

/// Pure functional evaluation (no energy), for reference checks.
std::uint64_t evaluate_circuit(const GateCircuit& circuit,
                               std::uint64_t input_bits);

}  // namespace sable
