#include "cell/builder.hpp"

#include "expr/transforms.hpp"
#include "util/error.hpp"

namespace sable {

namespace {

class TreeBuilder {
 public:
  TreeBuilder(GateCircuit& circuit, NetworkVariant variant,
              const Technology& tech)
      : circuit_(circuit), variant_(variant), tech_(tech) {}

  SignalRef emit(const ExprPtr& e) {
    if (e->is_literal()) {
      return SignalRef::input(e->literal_var(), e->literal_positive());
    }
    switch (e->kind()) {
      case ExprKind::kAnd:
        return emit_nary(e, CellFunction::kAnd2);
      case ExprKind::kOr:
        return emit_nary(e, CellFunction::kOr2);
      default:
        throw InvalidArgument(
            "circuit builder requires non-constant NNF expressions");
    }
  }

 private:
  SignalRef emit_nary(const ExprPtr& e, CellFunction f) {
    // Left-to-right fold of the n-ary node into 2-input gates.
    SignalRef acc = emit(e->operands()[0]);
    for (std::size_t i = 1; i < e->operands().size(); ++i) {
      const SignalRef rhs = emit(e->operands()[i]);
      const std::size_t g = circuit_.add_gate(cell_for(f), {acc, rhs});
      acc = SignalRef::gate(g);
    }
    return acc;
  }

  std::size_t cell_for(CellFunction f) {
    for (std::size_t i = 0; i < circuit_.cells().size(); ++i) {
      if (circuit_.cells()[i].name == expected_name(f)) return i;
    }
    Cell cell = make_cell(f, variant_, tech_);
    return circuit_.add_cell(std::move(cell));
  }

  std::string expected_name(CellFunction f) const {
    return std::string(to_string(f)) + "_" + to_string(variant_);
  }

  GateCircuit& circuit_;
  NetworkVariant variant_;
  const Technology& tech_;
};

}  // namespace

GateCircuit build_from_expressions(const std::vector<ExprPtr>& outputs,
                                   std::size_t num_inputs,
                                   NetworkVariant variant,
                                   const Technology& tech) {
  GateCircuit circuit(num_inputs);
  TreeBuilder builder(circuit, variant, tech);
  for (const auto& e : outputs) {
    circuit.mark_output(builder.emit(to_nnf(e)));
  }
  return circuit;
}

}  // namespace sable
