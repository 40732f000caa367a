// Gate-level circuits of differential cells.
//
// Signals are differential: both polarities of every signal exist
// physically, so an inverted connection is a free rail swap — SignalRef
// carries a polarity flag instead of the circuit needing inverter cells.
// Gates are stored in topological order (a gate may only read primary
// inputs and earlier gates), which makes cycle-based simulation a single
// forward sweep.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cell/library.hpp"

namespace sable {

struct SignalRef {
  enum class Kind : std::uint8_t { kInput, kGate };
  Kind kind = Kind::kInput;
  std::size_t index = 0;
  bool positive = true;

  static SignalRef input(std::size_t i, bool positive = true) {
    return SignalRef{Kind::kInput, i, positive};
  }
  static SignalRef gate(std::size_t g, bool positive = true) {
    return SignalRef{Kind::kGate, g, positive};
  }
  SignalRef negated() const { return SignalRef{kind, index, !positive}; }
};

struct GateInstance {
  std::string name;
  std::size_t cell_index = 0;
  std::vector<SignalRef> inputs;  // one per cell input, positional
};

class GateCircuit {
 public:
  explicit GateCircuit(std::size_t num_primary_inputs)
      : num_inputs_(num_primary_inputs) {}

  /// Registers a cell master; returns its index.
  std::size_t add_cell(Cell cell);

  /// Instantiates a gate. All referenced gates must already exist.
  std::size_t add_gate(std::size_t cell_index, std::vector<SignalRef> inputs,
                       std::string name = {});

  void mark_output(SignalRef signal) { outputs_.push_back(signal); }

  std::size_t num_primary_inputs() const { return num_inputs_; }
  const std::vector<Cell>& cells() const { return cells_; }
  const std::vector<GateInstance>& gates() const { return gates_; }
  const std::vector<SignalRef>& outputs() const { return outputs_; }

 private:
  std::size_t num_inputs_;
  std::vector<Cell> cells_;
  std::vector<GateInstance> gates_;
  std::vector<SignalRef> outputs_;
};

}  // namespace sable
