// Tests for the ngspice deck exporter.
#include <gtest/gtest.h>

#include "core/fc_synthesizer.hpp"
#include "expr/parser.hpp"
#include "sabl/sabl_gate.hpp"
#include "spice/netlist_export.hpp"

namespace sable {
namespace {

TEST(SpiceExportTest, EmitsElementsAndModels) {
  spice::Circuit ckt;
  ckt.add_vsource("vdd", "vdd", "0", spice::Waveform::dc(1.8));
  ckt.add_vsource("clk", "clk", "0",
                  spice::Waveform::pulse(0, 1.8, 0, 50e-12, 50e-12, 1.9e-9,
                                         4e-9));
  ckt.add_resistor("vdd", "a", 1000.0);
  ckt.add_capacitor("a", "0", 5e-15);
  const Technology tech = Technology::generic_180nm();
  ckt.add_mosfet("m0", spice::MosType::kNmos, "a", "clk", "0", tech.nmos,
                 1e-6, 0.18e-6);
  ckt.add_mosfet("m1", spice::MosType::kPmos, "a", "clk", "vdd", tech.pmos,
                 2e-6, 0.18e-6);

  spice::ExportOptions opt;
  opt.tran_stop = 8e-9;
  const std::string deck = to_spice_deck(ckt, opt);
  EXPECT_NE(deck.find("Vvdd vdd 0 DC 1.8"), std::string::npos);
  EXPECT_NE(deck.find("PULSE(0 1.8 0"), std::string::npos);
  EXPECT_NE(deck.find("R0 vdd a 1000"), std::string::npos);
  EXPECT_NE(deck.find("C0 a 0 5e-15"), std::string::npos);
  EXPECT_NE(deck.find("Mm0 a clk 0 0 nmos0"), std::string::npos);
  EXPECT_NE(deck.find(".model nmos0 NMOS(LEVEL=1"), std::string::npos);
  EXPECT_NE(deck.find(".model pmos1 PMOS(LEVEL=1"), std::string::npos);
  EXPECT_NE(deck.find(".tran "), std::string::npos);
  EXPECT_NE(deck.find(".end"), std::string::npos);
}

TEST(SpiceExportTest, SablGateDeckIsComplete) {
  VarTable vars;
  const ExprPtr f = parse_expression("A.B", vars);
  const DpdnNetwork net = synthesize_fc_dpdn(f, 2);
  const Technology tech = Technology::generic_180nm();
  const SablGateCircuit gate =
      assemble_sabl_gate(net, vars, tech, SizingPlan::defaults(tech));
  const std::string deck = to_spice_deck(gate.circuit);
  // One MOSFET line per device: 4 DPDN + 6 sense + bridge + foot + 4 inv.
  std::size_t mos_lines = 0;
  for (std::size_t pos = deck.find("\nM"); pos != std::string::npos;
       pos = deck.find("\nM", pos + 1)) {
    ++mos_lines;
  }
  EXPECT_EQ(mos_lines, 16u);
  EXPECT_NE(deck.find("Mmn_dpdn_0"), std::string::npos);
  EXPECT_NE(deck.find("Mm1_bridge x clk y"), std::string::npos);
}

}  // namespace
}  // namespace sable
