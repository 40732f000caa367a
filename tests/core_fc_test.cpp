// Tests for the paper's design methods (§4.1, §4.2) and the §5 enhancement:
// the reproduced Fig. 2 / Fig. 5 / Fig. 6 networks plus exhaustive property
// sweeps over every 2- and 3-input function and random expressions.
#include <gtest/gtest.h>

#include "core/checks.hpp"
#include "core/depth_analysis.hpp"
#include "core/enhancer.hpp"
#include "core/fc_synthesizer.hpp"
#include "core/genuine_builder.hpp"
#include "core/memory_effect.hpp"
#include "core/resistance.hpp"
#include "core/transformer.hpp"
#include "expr/parser.hpp"
#include "expr/quine_mccluskey.hpp"
#include "expr/random_expr.hpp"
#include "expr/transforms.hpp"
#include "expr/truth_table.hpp"
#include "netlist/conduction.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sable {
namespace {

// -- Fig. 2: the AND-NAND gate ------------------------------------------

TEST(FcSynthesizerTest, Fig2AndNandIsReproducedDeviceForDevice) {
  VarTable vars;
  const ExprPtr f = parse_expression("A.B", vars);
  const DpdnNetwork net = synthesize_fc_dpdn(f, 2);

  // Paper Fig. 2 right: 4 devices, one internal node W; branch functions
  // A.B (X side) and A'.B + B' (Y side) with M2 = A' between Y and W.
  EXPECT_EQ(net.device_count(), 4u);
  EXPECT_EQ(net.internal_node_count(), 1u);
  const NodeId w = 3;
  bool found_m2 = false;
  for (const auto& d : net.devices()) {
    if (d.gate.var == 0 && !d.gate.positive) {
      EXPECT_TRUE(d.touches(DpdnNetwork::kNodeY) && d.touches(w));
      found_m2 = true;
    }
  }
  EXPECT_TRUE(found_m2) << "repositioned M2 (A') must connect Y and W";

  const FunctionalityReport func = check_functionality(net, f);
  EXPECT_TRUE(func.ok);
  EXPECT_TRUE(check_full_connectivity(net).fully_connected);
}

TEST(GenuineBuilderTest, Fig2GenuineHasTheMemoryEffect) {
  VarTable vars;
  const ExprPtr f = parse_expression("A.B", vars);
  const DpdnNetwork net = build_genuine_dpdn(f, 2);
  EXPECT_EQ(net.device_count(), 4u);
  EXPECT_TRUE(check_functionality(net, f).ok);

  const ConnectivityReport conn = check_full_connectivity(net);
  EXPECT_FALSE(conn.fully_connected);
  // The paper: W floats exactly when A = B = 0.
  ASSERT_EQ(conn.violations.size(), 1u);
  EXPECT_EQ(conn.violations[0].assignment, 0b00u);

  const MemoryEffectReport mem = analyze_memory_effect(net);
  EXPECT_FALSE(mem.memoryless);
  EXPECT_EQ(mem.num_discharge_classes, 2u);
  EXPECT_EQ(mem.max_discharge_count_spread, 1u);
}

TEST(FcSynthesizerTest, DeviceCountEqualsGenuine) {
  VarTable vars;
  const char* cases[] = {"A.B", "A + B", "(A+B).(C+D)", "A.B + C.D",
                         "A.(B + C)", "A.B' + A'.B"};
  for (const char* text : cases) {
    const ExprPtr f = parse_expression(text, vars);
    const auto n = f->variables().size();
    const DpdnNetwork genuine = build_genuine_dpdn(f, n);
    const DpdnNetwork fc = synthesize_fc_dpdn(f, n);
    EXPECT_EQ(fc.device_count(), genuine.device_count()) << text;
    EXPECT_EQ(fc.device_count(), 2 * to_nnf(f)->literal_count()) << text;
  }
}

// -- Fig. 5: the OAI22 design example ------------------------------------

TEST(FcSynthesizerTest, Fig5Oai22Network) {
  VarTable vars;
  const ExprPtr f = parse_expression("(A+B).(C+D)", vars);
  const DpdnNetwork net = synthesize_fc_dpdn(f, 4);

  EXPECT_EQ(net.device_count(), 8u);
  EXPECT_EQ(net.internal_node_count(), 3u);
  EXPECT_TRUE(check_functionality(net, f).ok);
  EXPECT_TRUE(check_full_connectivity(net).fully_connected);

  // Paper: true branch realizes (A.B'+B).(C.D'+D); false branch realizes
  // A'.B'.(C.D'+D) + C'.D'. Verify the conduction functions semantically.
  const TruthTable fx =
      conduction_function(net, DpdnNetwork::kNodeX, DpdnNetwork::kNodeZ);
  EXPECT_EQ(fx, table_of(f, 4));
}

TEST(TransformerTest, Fig5BothMethodsAgree) {
  VarTable vars;
  const ExprPtr f = parse_expression("(A+B).(C+D)", vars);
  const DpdnNetwork genuine = build_genuine_dpdn(f, 4);
  const TransformResult result = transform_to_fully_connected(genuine, vars);

  EXPECT_TRUE(result.branches_complementary);
  EXPECT_TRUE(result.device_count_preserved);
  EXPECT_TRUE(check_functionality(result.network, f).ok);
  EXPECT_TRUE(check_full_connectivity(result.network).fully_connected);

  // Method 4.1 and method 4.2 must produce the identical network.
  const DpdnNetwork direct = synthesize_fc_dpdn(f, 4);
  ASSERT_EQ(result.network.device_count(), direct.device_count());
  for (std::size_t i = 0; i < direct.devices().size(); ++i) {
    EXPECT_EQ(result.network.devices()[i].gate,
              direct.devices()[i].gate);
    EXPECT_EQ(result.network.devices()[i].a, direct.devices()[i].a);
    EXPECT_EQ(result.network.devices()[i].b, direct.devices()[i].b);
  }
  EXPECT_FALSE(result.steps.empty());
}

TEST(TransformerTest, WorksOnAoi22) {
  VarTable vars;
  const ExprPtr f = parse_expression("A.B + C.D", vars);
  const DpdnNetwork genuine = build_genuine_dpdn(f, 4);
  const TransformResult result = transform_to_fully_connected(genuine, vars);
  EXPECT_TRUE(result.branches_complementary);
  EXPECT_TRUE(result.device_count_preserved);
  EXPECT_TRUE(check_full_connectivity(result.network).fully_connected);
}

// -- Fig. 6: the enhanced network ----------------------------------------

TEST(EnhancerTest, Fig6EnhancedAndNand) {
  VarTable vars;
  const ExprPtr f = parse_expression("A.B", vars);
  const DpdnNetwork net = synthesize_enhanced_dpdn(f, 2);

  // Fig. 6 right: 4 logic devices + one pass gate (2 dummy transistors).
  EXPECT_EQ(net.device_count(), 6u);
  EXPECT_EQ(net.pass_gate_device_count(), 2u);
  EXPECT_TRUE(check_functionality(net, f).ok);
  EXPECT_TRUE(check_full_connectivity(net).fully_connected);

  // Evaluation depth: constant and equal to the input count.
  const DepthReport depth = analyze_evaluation_depth(net);
  EXPECT_TRUE(depth.constant);
  EXPECT_EQ(depth.min_depth, 2u);

  // Without enhancement the depth is input-dependent (1 or 2).
  const DpdnNetwork fc = synthesize_fc_dpdn(f, 2);
  const DepthReport fc_depth = analyze_evaluation_depth(fc);
  EXPECT_FALSE(fc_depth.constant);
  EXPECT_EQ(fc_depth.min_depth, 1u);
  EXPECT_EQ(fc_depth.max_depth, 2u);
}

TEST(EnhancerTest, ConstantDischargeResistance) {
  VarTable vars;
  const ExprPtr f = parse_expression("A.B", vars);
  const DpdnNetwork enhanced = synthesize_enhanced_dpdn(f, 2);
  const ResistanceReport r = analyze_discharge_resistance(enhanced);
  EXPECT_NEAR(r.relative_spread, 0.0, 1e-9);

  const DpdnNetwork fc = synthesize_fc_dpdn(f, 2);
  const ResistanceReport r_fc = analyze_discharge_resistance(fc);
  EXPECT_GT(r_fc.relative_spread, 0.1);
}

TEST(EnhancerTest, EveryPathSeesEveryInput) {
  VarTable vars;
  const char* cases[] = {"A.B", "(A+B).(C+D)", "A.B + C.D", "A.(B + C)"};
  for (const char* text : cases) {
    const ExprPtr f = parse_expression(text, vars);
    const auto n = f->variables().size();
    const DpdnNetwork net = synthesize_enhanced_dpdn(f, n);
    const PathStats stats = structural_path_stats(net);
    EXPECT_TRUE(stats.all_inputs_on_every_path) << text;
    EXPECT_EQ(stats.min_length, n) << text;
    EXPECT_EQ(stats.max_length, n) << text;
  }
}

TEST(EnhancerTest, EnhancedFromTableHandlesRepeatedLiterals) {
  // XOR3 repeats every variable; the SOP route still gives constant depth.
  VarTable vars;
  const TruthTable t = table_of(parse_expression("A ^ B ^ C", vars), 3);
  const DpdnNetwork net = synthesize_enhanced_from_table(t);
  EXPECT_TRUE(check_full_connectivity(net).fully_connected);
  const DepthReport depth = analyze_evaluation_depth(net);
  EXPECT_TRUE(depth.constant);
  EXPECT_GT(net.pass_gate_device_count(), 0u);
}

TEST(EnhancerTest, RejectsConstantFunctions) {
  TruthTable zero(2);
  EXPECT_THROW(synthesize_enhanced_from_table(zero), InvalidArgument);
  EXPECT_THROW(synthesize_fc_dpdn(Expr::constant(true), 2), InvalidArgument);
}

// -- Property sweeps ------------------------------------------------------

// Every non-constant 2-input function (from its minimized SOP).
class AllTwoInput : public ::testing::TestWithParam<int> {};

TEST_P(AllTwoInput, FcSynthesisSoundAndFullyConnected) {
  TruthTable t(2);
  for (std::size_t row = 0; row < 4; ++row) t.set(row, (GetParam() >> row) & 1);
  if (t.popcount() == 0 || t.popcount() == t.num_rows()) GTEST_SKIP();
  const ExprPtr f = minimized_sop(t);
  const DpdnNetwork net = synthesize_fc_dpdn(f, 2);
  EXPECT_TRUE(check_functionality(net, f).ok);
  EXPECT_TRUE(check_full_connectivity(net).fully_connected);
  EXPECT_TRUE(analyze_memory_effect(net).memoryless);
}

INSTANTIATE_TEST_SUITE_P(AllSixteen, AllTwoInput, ::testing::Range(0, 16));

// Every non-constant 3-input function.
class AllThreeInput : public ::testing::TestWithParam<int> {};

TEST_P(AllThreeInput, FcSynthesisSoundAndFullyConnected) {
  TruthTable t(3);
  for (std::size_t row = 0; row < 8; ++row) t.set(row, (GetParam() >> row) & 1);
  if (t.popcount() == 0 || t.popcount() == t.num_rows()) GTEST_SKIP();
  const ExprPtr f = minimized_sop(t);
  const DpdnNetwork net = synthesize_fc_dpdn(f, 3);
  EXPECT_TRUE(check_functionality(net, f).ok);
  EXPECT_TRUE(check_full_connectivity(net).fully_connected);
}

INSTANTIATE_TEST_SUITE_P(AllTwoFiftySix, AllThreeInput,
                         ::testing::Range(0, 256));

// Every non-constant 4-input function, in one sweep: the method must give
// a functionally correct, fully connected network with the predicted
// device count for all 65534 of them.
TEST(ExhaustiveFourInput, EveryFunctionSynthesizesCorrectly) {
  std::size_t checked = 0;
  for (std::uint32_t truth = 1; truth < 0xFFFF; ++truth) {
    TruthTable t(4);
    for (std::size_t row = 0; row < 16; ++row) {
      t.set(row, (truth >> row) & 1u);
    }
    const ExprPtr f = minimized_sop(t);
    const DpdnNetwork net = synthesize_fc_dpdn(f, 4);
    // Inline functionality + connectivity checks (cheaper than the
    // report-building helpers at this volume).
    bool ok = true;
    for (std::uint64_t a = 0; a < 16 && ok; ++a) {
      UnionFind uf = conduction_components(net, a);
      ok = uf.same(DpdnNetwork::kNodeX, DpdnNetwork::kNodeZ) == t.get(a) &&
           uf.same(DpdnNetwork::kNodeY, DpdnNetwork::kNodeZ) == !t.get(a) &&
           !uf.same(DpdnNetwork::kNodeX, DpdnNetwork::kNodeY);
      for (NodeId n = 3; n < net.node_count() && ok; ++n) {
        ok = uf.same(n, DpdnNetwork::kNodeX) ||
             uf.same(n, DpdnNetwork::kNodeY) ||
             uf.same(n, DpdnNetwork::kNodeZ);
      }
    }
    ASSERT_TRUE(ok) << "function 0x" << std::hex << truth;
    ASSERT_EQ(net.device_count(), 2 * f->literal_count())
        << "function 0x" << std::hex << truth;
    ++checked;
  }
  EXPECT_EQ(checked, 65534u);
}

// Random factored expressions: synthesis + transformation round trip.
class RandomExprSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomExprSweep, SynthesisAndTransformRoundTrip) {
  Rng rng(0xF00D + static_cast<std::uint64_t>(GetParam()));
  RandomExprOptions opt;
  opt.num_vars = 4;
  opt.num_literals = 7;
  const ExprPtr f = random_nnf(rng, opt);
  const TruthTable t = table_of(f, opt.num_vars);
  if (t.popcount() == 0 || t.popcount() == t.num_rows()) GTEST_SKIP();

  const DpdnNetwork fc = synthesize_fc_dpdn(f, opt.num_vars);
  EXPECT_TRUE(check_functionality(fc, f).ok);
  EXPECT_TRUE(check_full_connectivity(fc).fully_connected);

  const DpdnNetwork enhanced = synthesize_enhanced_dpdn(f, opt.num_vars);
  EXPECT_TRUE(check_functionality(enhanced, f).ok);
  EXPECT_TRUE(check_full_connectivity(enhanced).fully_connected);

  const DpdnNetwork genuine = build_genuine_dpdn(f, opt.num_vars);
  const VarTable vars = VarTable::alphabetic(opt.num_vars);
  const TransformResult result = transform_to_fully_connected(genuine, vars);
  EXPECT_TRUE(result.branches_complementary);
  EXPECT_TRUE(check_functionality(result.network, f).ok);
  EXPECT_TRUE(check_full_connectivity(result.network).fully_connected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomExprSweep, ::testing::Range(0, 40));

}  // namespace
}  // namespace sable
