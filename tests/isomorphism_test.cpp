// Tests for network isomorphism, including the Fig. 2 reference schematic
// compared structurally against the synthesizer output.
#include <gtest/gtest.h>

#include "core/enhancer.hpp"
#include "core/fc_synthesizer.hpp"
#include "expr/parser.hpp"
#include "support/isomorphism.hpp"

namespace sable {
namespace {

DpdnNetwork fig2_fc_reference() {
  // Fig. 2 right, drawn by hand with a differently-named internal node.
  DpdnNetwork net(2);
  const NodeId w = net.add_internal_node("paper_W");
  net.add_switch(SignalLiteral{1, false}, DpdnNetwork::kNodeY,
                 DpdnNetwork::kNodeZ);                               // B'
  net.add_switch(SignalLiteral{1, true}, w, DpdnNetwork::kNodeZ);    // B
  net.add_switch(SignalLiteral{0, false}, DpdnNetwork::kNodeY, w);   // M2=A'
  net.add_switch(SignalLiteral{0, true}, DpdnNetwork::kNodeX, w);    // A
  return net;
}

TEST(IsomorphismTest, SynthesizedAndNandMatchesPaperSchematic) {
  VarTable vars;
  const ExprPtr f = parse_expression("A.B", vars);
  const DpdnNetwork synthesized = synthesize_fc_dpdn(f, 2);
  // Same circuit despite different device order and node naming.
  EXPECT_TRUE(networks_isomorphic(synthesized, fig2_fc_reference()));
}

TEST(IsomorphismTest, DetectsDifferentWiring) {
  VarTable vars;
  const ExprPtr f = parse_expression("A.B", vars);
  const DpdnNetwork fc = synthesize_fc_dpdn(f, 2);

  // Genuine network: same variables and device count, different wiring.
  DpdnNetwork genuine(2);
  const NodeId w = genuine.add_internal_node();
  genuine.add_switch(SignalLiteral{0, true}, DpdnNetwork::kNodeX, w);
  genuine.add_switch(SignalLiteral{1, true}, w, DpdnNetwork::kNodeZ);
  genuine.add_switch(SignalLiteral{0, false}, DpdnNetwork::kNodeY,
                     DpdnNetwork::kNodeZ);
  genuine.add_switch(SignalLiteral{1, false}, DpdnNetwork::kNodeY,
                     DpdnNetwork::kNodeZ);
  EXPECT_FALSE(networks_isomorphic(fc, genuine));
}

TEST(IsomorphismTest, DistinguishesLiteralPolarity) {
  DpdnNetwork n1(1);
  n1.add_switch(SignalLiteral{0, true}, DpdnNetwork::kNodeX,
                DpdnNetwork::kNodeZ);
  DpdnNetwork n2(1);
  n2.add_switch(SignalLiteral{0, false}, DpdnNetwork::kNodeX,
                DpdnNetwork::kNodeZ);
  EXPECT_FALSE(networks_isomorphic(n1, n2));
}

TEST(IsomorphismTest, SizeMismatchShortCircuits) {
  VarTable vars;
  const ExprPtr f = parse_expression("A.B", vars);
  EXPECT_FALSE(networks_isomorphic(synthesize_fc_dpdn(f, 2),
                                   synthesize_enhanced_dpdn(f, 2)));
}

TEST(IsomorphismTest, PassGateRoleMatters) {
  DpdnNetwork n1(1);
  const NodeId w1 = n1.add_internal_node();
  n1.add_pass_gate(0, DpdnNetwork::kNodeY, w1);
  DpdnNetwork n2(1);
  const NodeId w2 = n2.add_internal_node();
  n2.add_switch(SignalLiteral{0, true}, DpdnNetwork::kNodeY, w2);
  n2.add_switch(SignalLiteral{0, false}, DpdnNetwork::kNodeY, w2);
  // Same literals and endpoints but different roles: not the same cell.
  EXPECT_FALSE(networks_isomorphic(n1, n2));
}

TEST(IsomorphismTest, LargerNetworkRoundTrip) {
  VarTable vars;
  const ExprPtr f = parse_expression("(A+B).(C+D)", vars);
  const DpdnNetwork net = synthesize_fc_dpdn(f, 4);
  EXPECT_TRUE(networks_isomorphic(net, synthesize_fc_dpdn(f, 4)));
}

}  // namespace
}  // namespace sable
