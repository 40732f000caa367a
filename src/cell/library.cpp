#include "cell/library.hpp"

#include "core/enhancer.hpp"
#include "core/fc_synthesizer.hpp"
#include "core/genuine_builder.hpp"
#include "expr/parser.hpp"
#include "util/error.hpp"

namespace sable {

const char* to_string(CellFunction f) {
  switch (f) {
    case CellFunction::kAnd2:
      return "AND2";
    case CellFunction::kOr2:
      return "OR2";
    case CellFunction::kXor2:
      return "XOR2";
    case CellFunction::kMux2:
      return "MUX2";
    case CellFunction::kAnd3:
      return "AND3";
    case CellFunction::kOr3:
      return "OR3";
    case CellFunction::kAoi22:
      return "AOI22";
    case CellFunction::kOai22:
      return "OAI22";
    case CellFunction::kMaj3:
      return "MAJ3";
    case CellFunction::kXor3:
      return "XOR3";
  }
  SABLE_UNREACHABLE("unreachable cell function");
}

const char* to_string(NetworkVariant v) {
  switch (v) {
    case NetworkVariant::kGenuine:
      return "genuine";
    case NetworkVariant::kFullyConnected:
      return "fully-connected";
    case NetworkVariant::kEnhanced:
      return "enhanced";
  }
  SABLE_UNREACHABLE("unreachable network variant");
}

std::vector<CellFunction> all_cell_functions() {
  return {CellFunction::kAnd2, CellFunction::kOr2,   CellFunction::kXor2,
          CellFunction::kMux2, CellFunction::kAnd3,  CellFunction::kOr3,
          CellFunction::kAoi22, CellFunction::kOai22, CellFunction::kMaj3,
          CellFunction::kXor3};
}

std::size_t cell_input_count(CellFunction f) {
  switch (f) {
    case CellFunction::kAnd2:
    case CellFunction::kOr2:
    case CellFunction::kXor2:
      return 2;
    case CellFunction::kMux2:
    case CellFunction::kAnd3:
    case CellFunction::kOr3:
    case CellFunction::kMaj3:
    case CellFunction::kXor3:
      return 3;
    case CellFunction::kAoi22:
    case CellFunction::kOai22:
      return 4;
  }
  SABLE_UNREACHABLE("unreachable cell function");
}

ExprPtr cell_expression(CellFunction f) {
  // Variables are positional: A=0, B=1, C=2, D=3 (MUX2: S=0, A=1, B=2).
  VarTable vars = VarTable::alphabetic(4);
  switch (f) {
    case CellFunction::kAnd2:
      return parse_expression("A.B", vars);
    case CellFunction::kOr2:
      return parse_expression("A + B", vars);
    case CellFunction::kXor2:
      return parse_expression("A.B' + A'.B", vars);
    case CellFunction::kMux2:
      return parse_expression("A.B + A'.C", vars);
    case CellFunction::kAnd3:
      return parse_expression("A.B.C", vars);
    case CellFunction::kOr3:
      return parse_expression("A + B + C", vars);
    case CellFunction::kAoi22:
      return parse_expression("A.B + C.D", vars);
    case CellFunction::kOai22:
      return parse_expression("(A+B).(C+D)", vars);
    case CellFunction::kMaj3:
      return parse_expression("A.B + C.(A + B)", vars);
    case CellFunction::kXor3:
      return parse_expression("A.(B.C + B'.C') + A'.(B.C' + B'.C)", vars);
  }
  SABLE_UNREACHABLE("unreachable cell function");
}

Cell make_custom_cell(std::string name, const ExprPtr& function,
                      std::size_t num_inputs, NetworkVariant variant,
                      const Technology& tech) {
  DpdnNetwork network = [&] {
    switch (variant) {
      case NetworkVariant::kGenuine:
        return build_genuine_dpdn(function, num_inputs);
      case NetworkVariant::kFullyConnected:
        return synthesize_fc_dpdn(function, num_inputs);
      case NetworkVariant::kEnhanced:
        return synthesize_enhanced_dpdn(function, num_inputs);
    }
    SABLE_UNREACHABLE("unreachable network variant");
  }();
  const SizingPlan sizing = SizingPlan::defaults(tech);
  GateEnergyModel model = build_gate_model(network, tech, sizing);
  return Cell{std::move(name), function,          num_inputs,
              variant,         std::move(network), std::move(model)};
}

Cell make_cell(CellFunction f, NetworkVariant variant,
               const Technology& tech) {
  std::string name = std::string(to_string(f)) + "_" + to_string(variant);
  return make_custom_cell(std::move(name), cell_expression(f),
                          cell_input_count(f), variant, tech);
}

}  // namespace sable
