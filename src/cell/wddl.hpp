// WDDL — wave dynamic differential logic (the paper's ref [8] class:
// countermeasures "composed of standard logic gates").
//
// A WDDL gate is a pair of positive-monotonic standard cells: the true
// output computed by one (e.g. AND), the false output by its dual (OR) fed
// with complemented inputs. An all-zero precharge wave propagates through
// the pair, so like SABL it switches exactly one output per cycle. Its
// residual leak — and the reason the paper argues for custom gates — is
// that the two outputs of a pair are distinct standard cells with distinct
// loads: any capacitance mismatch between the true and false rails makes
// the cycle energy depend on which rail fired.
//
// The model here exposes that mismatch directly: per gate, the true and
// false rails carry capacitances c_true / c_false; a `mismatch` fraction of
// deterministic per-gate imbalance emulates unbalanced placement/routing.
// mismatch = 0 is the ideal (perfectly balanced back-end) WDDL.
//
// WddlCircuitSimBatch evaluates 64 independent circuit instances
// bit-parallel, and the scalar WddlCircuitSim aliases its width-1 case.
#pragma once

#include <cstdint>
#include <vector>

#include "cell/circuit_sim.hpp"
#include "util/rng.hpp"

namespace sable {

class WddlCircuitSimBatch {
 public:
  /// `mismatch` is the relative rail imbalance (0 = balanced; 0.05 = 5%
  /// per-gate random imbalance, deterministic via `seed`).
  WddlCircuitSimBatch(const GateCircuit& circuit, const Technology& tech,
                      double mismatch, std::uint64_t seed = 0x3DD1);

  /// One precharge/evaluate cycle per selected lane; energy charges exactly
  /// one rail load per gate (the rail whose value is 1 after evaluation).
  void cycle(const std::vector<std::uint64_t>& input_words,
             std::uint64_t lane_mask, BatchCycleResult& out);

  /// As cycle(), with the energy split per logic level: each level's row
  /// carries its gates' fired-rail loads (the constant false-rail base of
  /// that level plus the per-gate true/false deltas).
  void cycle_sampled(const std::vector<std::uint64_t>& input_words,
                     std::uint64_t lane_mask, SampledBatchCycleResult& out);

  /// A no-op: WDDL keeps no state across cycles.
  void reset() {}

  /// Samples per cycle_sampled() row: the circuit's logic depth.
  std::size_t num_levels() const { return eval_.num_levels(); }

 private:
  // Adds the rail delta of every gate whose true rail fired into its row
  // (circuit_sim.hpp).
  template <typename RowFn>
  void gate_loop(const std::vector<std::uint64_t>& input_words,
                 std::uint64_t lane_mask, RowFn&& row_for_gate,
                 std::vector<std::uint64_t>& output_words);

  BatchGateEvaluator eval_;
  double base_energy_ = 0.0;        // sum of false-rail energies
  std::vector<double> rail_delta_;  // per gate: true minus false rail
  std::vector<double> base_level_;  // per level: its false-rail sum
};

using WddlCircuitSim = ScalarCircuitSim<WddlCircuitSimBatch>;

}  // namespace sable
