// Tests for the differential cell library and gate-level circuits.
#include <gtest/gtest.h>

#include "cell/builder.hpp"
#include "cell/circuit_sim.hpp"
#include "cell/library.hpp"
#include "core/checks.hpp"
#include "expr/parser.hpp"
#include "expr/truth_table.hpp"
#include "util/error.hpp"

namespace sable {
namespace {

const Technology kTech = Technology::generic_180nm();

TEST(LibraryTest, EveryCellVerifiesInEveryVariant) {
  for (CellFunction f : all_cell_functions()) {
    const ExprPtr expr = cell_expression(f);
    for (NetworkVariant v :
         {NetworkVariant::kGenuine, NetworkVariant::kFullyConnected,
          NetworkVariant::kEnhanced}) {
      const Cell cell = make_cell(f, v, kTech);
      EXPECT_EQ(cell.num_inputs, cell_input_count(f));
      const FunctionalityReport report =
          check_functionality(cell.network, expr);
      EXPECT_TRUE(report.ok)
          << to_string(f) << " variant " << to_string(v);
      if (v != NetworkVariant::kGenuine) {
        EXPECT_TRUE(check_full_connectivity(cell.network).fully_connected)
            << to_string(f) << " variant " << to_string(v);
      }
    }
  }
}

TEST(LibraryTest, CellNamesEncodeFunctionAndVariant) {
  const Cell cell =
      make_cell(CellFunction::kOai22, NetworkVariant::kEnhanced, kTech);
  EXPECT_EQ(cell.name, "OAI22_enhanced");
}

TEST(LibraryTest, CustomCell) {
  VarTable vars;
  const ExprPtr f = parse_expression("A.(B + C')", vars);
  const Cell cell = make_custom_cell("custom", f, 3,
                                     NetworkVariant::kFullyConnected, kTech);
  EXPECT_TRUE(check_functionality(cell.network, f).ok);
  EXPECT_TRUE(check_full_connectivity(cell.network).fully_connected);
}

TEST(CircuitTest, RejectsMalformedGates) {
  GateCircuit circuit(2);
  const std::size_t and2 = circuit.add_cell(
      make_cell(CellFunction::kAnd2, NetworkVariant::kFullyConnected, kTech));
  EXPECT_THROW(circuit.add_gate(and2, {SignalRef::input(0)}),
               InvalidArgument);  // wrong arity
  EXPECT_THROW(circuit.add_gate(and2, {SignalRef::input(0),
                                       SignalRef::input(7)}),
               InvalidArgument);  // input out of range
  EXPECT_THROW(circuit.add_gate(and2, {SignalRef::input(0),
                                       SignalRef::gate(3)}),
               InvalidArgument);  // forward reference
  EXPECT_THROW(circuit.add_gate(99, {}), InvalidArgument);
}

TEST(CircuitTest, EvaluatesGateTree) {
  // out = (A.B) + C via two gates.
  GateCircuit circuit(3);
  const std::size_t and2 = circuit.add_cell(
      make_cell(CellFunction::kAnd2, NetworkVariant::kFullyConnected, kTech));
  const std::size_t or2 = circuit.add_cell(
      make_cell(CellFunction::kOr2, NetworkVariant::kFullyConnected, kTech));
  const std::size_t g0 =
      circuit.add_gate(and2, {SignalRef::input(0), SignalRef::input(1)});
  const std::size_t g1 =
      circuit.add_gate(or2, {SignalRef::gate(g0), SignalRef::input(2)});
  circuit.mark_output(SignalRef::gate(g1));

  for (std::uint64_t a = 0; a < 8; ++a) {
    const bool expected = (((a & 1) != 0) && ((a & 2) != 0)) || ((a & 4) != 0);
    EXPECT_EQ(evaluate_circuit(circuit, a), expected ? 1u : 0u) << a;
  }
}

TEST(CircuitTest, NegatedSignalRefsAreFreeInversions) {
  // out = A NAND B == (A.B)' via an output rail swap.
  GateCircuit circuit(2);
  const std::size_t and2 = circuit.add_cell(
      make_cell(CellFunction::kAnd2, NetworkVariant::kFullyConnected, kTech));
  const std::size_t g0 =
      circuit.add_gate(and2, {SignalRef::input(0), SignalRef::input(1)});
  circuit.mark_output(SignalRef::gate(g0, /*positive=*/false));
  EXPECT_EQ(evaluate_circuit(circuit, 0b11), 0u);
  EXPECT_EQ(evaluate_circuit(circuit, 0b01), 1u);
}

TEST(BuilderTest, BuildsEquivalentCircuitFromExpression) {
  VarTable vars;
  const ExprPtr f = parse_expression("A.(B + C.D) + B'.D", vars);
  const GateCircuit circuit =
      build_from_expressions({f}, 4, NetworkVariant::kFullyConnected, kTech);
  for (std::uint64_t a = 0; a < 16; ++a) {
    EXPECT_EQ(evaluate_circuit(circuit, a) != 0, evaluate(f, a)) << a;
  }
  EXPECT_GT(circuit.gates().size(), 1u);
}

TEST(CircuitSimTest, DifferentialFcCircuitIsConstantEnergy) {
  VarTable vars;
  const ExprPtr f = parse_expression("A.(B + C.D) + B'.D", vars);
  const GateCircuit circuit =
      build_from_expressions({f}, 4, NetworkVariant::kFullyConnected, kTech);
  DifferentialCircuitSim sim(circuit);
  const double e0 = sim.cycle(0).energy;
  for (std::uint64_t a = 1; a < 16; ++a) {
    EXPECT_DOUBLE_EQ(sim.cycle(a).energy, e0) << a;
  }
}

TEST(CircuitSimTest, GenuineCircuitEnergyVaries) {
  VarTable vars;
  const ExprPtr f = parse_expression("A.B + C.D", vars);
  const GateCircuit circuit =
      build_from_expressions({f}, 4, NetworkVariant::kGenuine, kTech);
  DifferentialCircuitSim sim(circuit);
  double lo = 1e9;
  double hi = 0.0;
  for (std::uint64_t a = 0; a < 16; ++a) {
    const double e = sim.cycle(a).energy;
    lo = std::min(lo, e);
    hi = std::max(hi, e);
  }
  EXPECT_GT(hi, lo);
}

TEST(CircuitSimTest, CmosEnergyFollowsRisingTransitions) {
  GateCircuit circuit(2);
  const std::size_t and2 = circuit.add_cell(
      make_cell(CellFunction::kAnd2, NetworkVariant::kFullyConnected, kTech));
  const std::size_t g0 =
      circuit.add_gate(and2, {SignalRef::input(0), SignalRef::input(1)});
  circuit.mark_output(SignalRef::gate(g0));
  const double e_sw = 1.0;  // 1 J per rising edge makes counting explicit
  CmosCircuitSim sim(circuit, e_sw);
  EXPECT_EQ(sim.cycle(0b11).energy, e_sw);  // 0 -> 1 rises
  EXPECT_EQ(sim.cycle(0b11).energy, 0.0);   // stays 1: free
  EXPECT_EQ(sim.cycle(0b01).energy, 0.0);   // 1 -> 0: no supply draw
  EXPECT_EQ(sim.cycle(0b11).energy, e_sw);  // rises again
}

TEST(CircuitSimTest, OutputsMatchReferenceEvaluation) {
  VarTable vars;
  const ExprPtr f0 = parse_expression("A ^ B ^ C", vars);
  const ExprPtr f1 = parse_expression("A.B + C", vars);
  const GateCircuit circuit = build_from_expressions(
      {f0, f1}, 3, NetworkVariant::kFullyConnected, kTech);
  DifferentialCircuitSim sim(circuit);
  for (std::uint64_t a = 0; a < 8; ++a) {
    const std::uint64_t expected = (evaluate(f0, a) ? 1u : 0u) |
                                   (evaluate(f1, a) ? 2u : 0u);
    EXPECT_EQ(sim.cycle(a).outputs, expected) << a;
  }
}

}  // namespace
}  // namespace sable
