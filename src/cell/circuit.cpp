#include "cell/circuit.hpp"

#include "util/error.hpp"

namespace sable {

std::size_t GateCircuit::add_cell(Cell cell) {
  cells_.push_back(std::move(cell));
  return cells_.size() - 1;
}

std::size_t GateCircuit::add_gate(std::size_t cell_index,
                                  std::vector<SignalRef> inputs,
                                  std::string name) {
  SABLE_REQUIRE(cell_index < cells_.size(), "unknown cell index");
  const Cell& cell = cells_[cell_index];
  SABLE_REQUIRE(inputs.size() == cell.num_inputs,
                "gate input count does not match its cell");
  for (const auto& in : inputs) {
    if (in.kind == SignalRef::Kind::kInput) {
      SABLE_REQUIRE(in.index < num_inputs_, "primary input out of range");
    } else {
      SABLE_REQUIRE(in.index < gates_.size(),
                    "gate may only reference earlier gates");
    }
  }
  if (name.empty()) name = "g" + std::to_string(gates_.size());
  gates_.push_back(GateInstance{std::move(name), cell_index, std::move(inputs)});
  return gates_.size() - 1;
}

}  // namespace sable
