// Tests for the BDD package and symbolic network verification, including
// cross-validation against the exhaustive checkers and a wide-gate case the
// exhaustive path would not be asked to handle.
#include <gtest/gtest.h>

#include "core/checks.hpp"
#include "core/enhancer.hpp"
#include "core/fc_synthesizer.hpp"
#include "core/genuine_builder.hpp"
#include "crypto/sboxes.hpp"
#include "expr/factoring.hpp"
#include "expr/parser.hpp"
#include "expr/random_expr.hpp"
#include "expr/truth_table.hpp"
#include "netlist/conduction.hpp"
#include "support/bdd.hpp"
#include "support/symbolic.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sable {
namespace {

TEST(BddTest, TerminalsAndVariables) {
  BddManager mgr(3);
  EXPECT_EQ(mgr.apply_and(BddManager::kTrue, BddManager::kFalse),
            BddManager::kFalse);
  EXPECT_EQ(mgr.negate(BddManager::kFalse), BddManager::kTrue);
  const BddRef a = mgr.var(0);
  EXPECT_EQ(mgr.negate(mgr.negate(a)), a);  // canonicity
  EXPECT_EQ(mgr.apply_and(a, a), a);
  EXPECT_EQ(mgr.apply_or(a, mgr.negate(a)), BddManager::kTrue);
  EXPECT_EQ(mgr.apply_and(a, mgr.negate(a)), BddManager::kFalse);
}

TEST(BddTest, CanonicalEquality) {
  BddManager mgr(3);
  VarTable vars;
  // (A+B).(A+C) == A + B.C — different syntax, same BDD node.
  const BddRef lhs = mgr.from_expr(parse_expression("(A+B).(A+C)", vars));
  const BddRef rhs = mgr.from_expr(parse_expression("A + B.C", vars));
  EXPECT_EQ(lhs, rhs);
}

TEST(BddTest, FromExprMatchesTruthTable) {
  VarTable vars;
  const char* cases[] = {"A.B + C.D", "(A+B).(C+D)", "A ^ B ^ C ^ D",
                         "A.(B + C.D') + A'.B'"};
  BddManager mgr(4);
  for (const char* text : cases) {
    const ExprPtr e = parse_expression(text, vars);
    const BddRef f = mgr.from_expr(e);
    for (std::uint64_t a = 0; a < 16; ++a) {
      EXPECT_EQ(mgr.evaluate(f, a), evaluate(e, a)) << text << " @ " << a;
    }
  }
}

TEST(BddTest, SatFraction) {
  BddManager mgr(4);
  VarTable vars;
  EXPECT_DOUBLE_EQ(mgr.sat_fraction(BddManager::kFalse), 0.0);
  EXPECT_DOUBLE_EQ(mgr.sat_fraction(BddManager::kTrue), 1.0);
  EXPECT_DOUBLE_EQ(
      mgr.sat_fraction(mgr.from_expr(parse_expression("A.B", vars))), 0.25);
  EXPECT_DOUBLE_EQ(
      mgr.sat_fraction(mgr.from_expr(parse_expression("A ^ B", vars))), 0.5);
}

TEST(BddTest, AnySatReturnsWitness) {
  BddManager mgr(4);
  VarTable vars;
  const ExprPtr e = parse_expression("A.B'.C", vars);
  const BddRef f = mgr.from_expr(e);
  const std::uint64_t w = mgr.any_sat(f);
  EXPECT_TRUE(evaluate(e, w));
  EXPECT_THROW(mgr.any_sat(BddManager::kFalse), InvalidArgument);
}

TEST(SymbolicTest, ConductionMatchesUnionFind) {
  VarTable vars;
  const ExprPtr f = parse_expression("(A+B).(C+D)", vars);
  const DpdnNetwork net = synthesize_fc_dpdn(f, 4);
  BddManager mgr(4);
  const SymbolicConduction cond(mgr, net);
  for (std::uint64_t a = 0; a < 16; ++a) {
    for (NodeId u = 0; u < net.node_count(); ++u) {
      for (NodeId v = 0; v < net.node_count(); ++v) {
        EXPECT_EQ(mgr.evaluate(cond.reach(u, v), a),
                  conducts(net, a, u, v))
            << "nodes " << u << "," << v << " @ " << a;
      }
    }
  }
}

TEST(SymbolicTest, AgreesWithExhaustiveCheckers) {
  Rng rng(0x5EED);
  RandomExprOptions opt;
  opt.num_vars = 4;
  opt.num_literals = 8;
  for (int i = 0; i < 20; ++i) {
    const ExprPtr f = random_nnf(rng, opt);
    const TruthTable t = table_of(f, opt.num_vars);
    if (t.popcount() == 0 || t.popcount() == t.num_rows()) continue;
    for (const bool fc : {false, true}) {
      const DpdnNetwork net = fc ? synthesize_fc_dpdn(f, opt.num_vars)
                                 : build_genuine_dpdn(f, opt.num_vars);
      BddManager mgr(opt.num_vars);
      EXPECT_EQ(check_functionality_symbolic(mgr, net, f).ok,
                check_functionality(net, f).ok);
      EXPECT_EQ(check_full_connectivity_symbolic(mgr, net).fully_connected,
                check_full_connectivity(net).fully_connected);
    }
  }
}

TEST(SymbolicTest, CounterexampleIsAFloatingEvent) {
  VarTable vars;
  const ExprPtr f = parse_expression("A.B", vars);
  const DpdnNetwork genuine = build_genuine_dpdn(f, 2);
  BddManager mgr(2);
  const SymbolicConnectivityReport report =
      check_full_connectivity_symbolic(mgr, genuine);
  ASSERT_FALSE(report.fully_connected);
  EXPECT_EQ(report.counterexample, 0b00u);  // the paper's (0,0) event
  EXPECT_EQ(report.floating_node, 3u);      // node W
}

TEST(SymbolicTest, DetectsFunctionalityBug) {
  // Build a deliberately wrong network: AND-NAND with the B switch gated
  // by B' instead of B.
  DpdnNetwork net(2);
  const NodeId w = net.add_internal_node();
  net.add_switch(SignalLiteral{0, true}, DpdnNetwork::kNodeX, w);
  net.add_switch(SignalLiteral{1, false}, w, DpdnNetwork::kNodeZ);  // bug
  net.add_switch(SignalLiteral{0, false}, DpdnNetwork::kNodeY,
                 DpdnNetwork::kNodeZ);
  net.add_switch(SignalLiteral{1, false}, DpdnNetwork::kNodeY,
                 DpdnNetwork::kNodeZ);
  VarTable vars;
  const ExprPtr f = parse_expression("A.B", vars);
  BddManager mgr(2);
  const SymbolicFunctionalityReport report =
      check_functionality_symbolic(mgr, net, f);
  EXPECT_FALSE(report.ok);
  // The witness must actually demonstrate the mismatch.
  const bool fx = conducts(net, report.counterexample, DpdnNetwork::kNodeX,
                           DpdnNetwork::kNodeZ);
  EXPECT_NE(fx, evaluate(f, report.counterexample));
}

TEST(SymbolicTest, VerifiesWideAesGateBeyondExhaustiveComfort) {
  // An AES S-box output bit: 8 inputs, a large SOP. The symbolic checks
  // verify the synthesized FC network without enumerating 2^8 inputs (and
  // would scale well past the point where enumeration gives out).
  const SboxSpec spec = aes_spec();
  const TruthTable t = sbox_output_bit(spec, 0);
  const ExprPtr f = factored_form(t);
  const DpdnNetwork net = synthesize_fc_dpdn(f, spec.in_bits);
  BddManager mgr(spec.in_bits);
  EXPECT_TRUE(check_functionality_symbolic(mgr, net, f).ok);
  EXPECT_TRUE(check_full_connectivity_symbolic(mgr, net).fully_connected);
  EXPECT_GT(net.device_count(), 100u);  // genuinely wide gate
}

TEST(SymbolicTest, PassGatesAreAlwaysConducting) {
  DpdnNetwork net(2);
  const NodeId w = net.add_internal_node();
  net.add_pass_gate(0, DpdnNetwork::kNodeY, w);
  BddManager mgr(2);
  const SymbolicConduction cond(mgr, net);
  EXPECT_EQ(cond.reach(DpdnNetwork::kNodeY, w), BddManager::kTrue);
}

}  // namespace
}  // namespace sable
