// End-to-end integration tests exercising the full design flow the way a
// library team would: genuine schematic in, verified constant-power cell and
// SPICE deck out — plus cross-validation between the three verification
// engines (exhaustive, symbolic, switch-level) on the same artifacts.
#include <gtest/gtest.h>

#include "cell/library.hpp"
#include "core/checks.hpp"
#include "core/enhancer.hpp"
#include "core/memory_effect.hpp"
#include "core/transformer.hpp"
#include "expr/parser.hpp"
#include "expr/printer.hpp"
#include "sabl/testbench.hpp"
#include "spice/netlist_export.hpp"
#include "support/symbolic.hpp"
#include "switchsim/energy.hpp"

namespace sable {
namespace {

const Technology kTech = Technology::generic_180nm();

TEST(FullFlowTest, SchematicToVerifiedCellAndDeck) {
  // 1. A designer's genuine AOI22 schematic.
  VarTable vars;
  const ExprPtr f = parse_expression("A.B + C.D", vars);
  constexpr NodeId X = DpdnNetwork::kNodeX;
  constexpr NodeId Y = DpdnNetwork::kNodeY;
  constexpr NodeId Z = DpdnNetwork::kNodeZ;
  DpdnNetwork genuine(4);
  const NodeId p1 = genuine.add_internal_node("P1");
  const NodeId p2 = genuine.add_internal_node("P2");
  // True branch: A.B + C.D.
  genuine.add_switch({0, true}, X, p1);
  genuine.add_switch({1, true}, p1, Z);
  genuine.add_switch({2, true}, X, p2);
  genuine.add_switch({3, true}, p2, Z);
  // False branch: (A'+B').(C'+D').
  const NodeId q1 = genuine.add_internal_node("Q1");
  genuine.add_switch({0, false}, Y, q1);
  genuine.add_switch({1, false}, Y, q1);
  genuine.add_switch({2, false}, q1, Z);
  genuine.add_switch({3, false}, q1, Z);
  EXPECT_TRUE(check_functionality(genuine, f).ok);
  EXPECT_FALSE(check_full_connectivity(genuine).fully_connected);

  // 2. §4.2 transformation.
  const TransformResult result = transform_to_fully_connected(genuine, vars);
  EXPECT_TRUE(result.branches_complementary);
  EXPECT_TRUE(result.device_count_preserved);

  // 3. Verify with all three engines.
  EXPECT_TRUE(check_functionality(result.network, f).ok);
  EXPECT_TRUE(check_full_connectivity(result.network).fully_connected);
  BddManager mgr(4);
  EXPECT_TRUE(check_functionality_symbolic(mgr, result.network, f).ok);
  EXPECT_TRUE(
      check_full_connectivity_symbolic(mgr, result.network).fully_connected);
  const SizingPlan sizing = SizingPlan::defaults(kTech);
  const GateEnergyModel model =
      build_gate_model(result.network, kTech, sizing);
  EXPECT_NEAR(profile_gate_energy(result.network, model).spread.ned, 0.0,
              1e-12);

  // 4. And exports as a simulatable SPICE deck.
  const SablGateCircuit gate =
      assemble_sabl_gate(result.network, vars, kTech, sizing);
  const std::string deck = to_spice_deck(gate.circuit);
  EXPECT_NE(deck.find(".model"), std::string::npos);
  EXPECT_NE(deck.find(".end"), std::string::npos);
}

TEST(FullFlowTest, ThreeEnginesAgreeOnEveryLibraryCell) {
  for (CellFunction fn : all_cell_functions()) {
    const ExprPtr f = cell_expression(fn);
    const std::size_t n = cell_input_count(fn);
    for (NetworkVariant v :
         {NetworkVariant::kGenuine, NetworkVariant::kFullyConnected,
          NetworkVariant::kEnhanced}) {
      const Cell cell = make_cell(fn, v, kTech);
      const bool exhaustive =
          check_full_connectivity(cell.network).fully_connected;
      BddManager mgr(n);
      const bool symbolic =
          check_full_connectivity_symbolic(mgr, cell.network)
              .fully_connected;
      const bool memoryless =
          analyze_memory_effect(cell.network).memoryless;
      const EnergyProfile profile =
          profile_gate_energy(cell.network, cell.energy_model);
      const bool constant_energy = profile.spread.ned < 1e-12;
      EXPECT_EQ(exhaustive, symbolic) << cell.name;
      EXPECT_EQ(exhaustive, memoryless) << cell.name;
      EXPECT_EQ(exhaustive, constant_energy) << cell.name;
    }
  }
}

TEST(FullFlowTest, EnhancedCellSurvivesSpice) {
  VarTable vars;
  const ExprPtr f = parse_expression("(A+B).(C+D)", vars);
  const DpdnNetwork enhanced = synthesize_enhanced_dpdn(f, 4);

  // The enhanced network drives a real transient: constant energy holds.
  const SizingPlan sizing = SizingPlan::defaults(kTech);
  const std::vector<std::uint64_t> seq = {0b0101, 0b1111, 0b0000};
  const SablRunResult run =
      run_sabl_sequence(enhanced, vars, kTech, sizing, seq);
  double lo = run.cycles.front().energy;
  double hi = lo;
  for (const auto& c : run.cycles) {
    lo = std::min(lo, c.energy);
    hi = std::max(hi, c.energy);
  }
  // 4-input gates resolve the sense amplifier through deeper stacks, so the
  // analog residual is a bit above the AND-NAND's 0.2-0.3%; the genuine
  // network's memory effect is an order of magnitude larger than this bound.
  EXPECT_LT((hi - lo) / hi, 0.03);
}

}  // namespace
}  // namespace sable
