// Tests for the technology module: parameter sanity, capacitance
// extraction identities, and sizing rules.
#include <gtest/gtest.h>

#include "core/enhancer.hpp"
#include "core/fc_synthesizer.hpp"
#include "expr/parser.hpp"
#include "tech/capacitance.hpp"

namespace sable {
namespace {

TEST(TechnologyTest, ReferenceProcessSanity) {
  const Technology tech = Technology::generic_180nm();
  EXPECT_GT(tech.vdd, 1.0);
  EXPECT_LT(tech.vdd, 3.0);
  EXPECT_GT(tech.nmos.vt0, 0.0);
  EXPECT_LT(tech.pmos.vt0, 0.0);
  EXPECT_GT(tech.nmos.kp, tech.pmos.kp);  // electron vs hole mobility
  EXPECT_GT(tech.min_length, 0.0);
}

TEST(TechnologyTest, DefaultSizingIsOrdered) {
  const Technology tech = Technology::generic_180nm();
  const SizingPlan plan = SizingPlan::defaults(tech);
  EXPECT_EQ(plan.length, tech.min_length);
  // The foot must sink the whole DPDN current; the bridge only equalizes.
  EXPECT_GT(plan.foot_width, plan.dpdn_width);
  EXPECT_LT(plan.bridge_width, plan.dpdn_width);
  EXPECT_GT(plan.output_load, 0.0);
}

TEST(CapacitanceTest, NodeCapsScaleWithAttachedDevices) {
  VarTable vars;
  const ExprPtr f = parse_expression("A.B.C", vars);
  const DpdnNetwork net = synthesize_fc_dpdn(f, 3);
  const Technology tech = Technology::generic_180nm();
  const SizingPlan sizing = SizingPlan::defaults(tech);
  const auto caps = dpdn_node_capacitances(net, tech, sizing);
  const auto adjacency = net.adjacency();
  // Exactly wire cap plus one junction term per attached device terminal.
  const double per_terminal =
      (tech.nmos.cj_per_width + tech.nmos.cov_per_width) * sizing.dpdn_width;
  for (NodeId n = 0; n < net.node_count(); ++n) {
    const double expected =
        tech.wire_cap_per_node +
        per_terminal * static_cast<double>(adjacency[n].size());
    EXPECT_NEAR(caps[n], expected, 1e-21) << "node " << n;
  }
}

TEST(CapacitanceTest, TotalInternalExcludesExternals) {
  VarTable vars;
  const ExprPtr f = parse_expression("A.B", vars);
  const DpdnNetwork net = synthesize_fc_dpdn(f, 2);
  const Technology tech = Technology::generic_180nm();
  const SizingPlan sizing = SizingPlan::defaults(tech);
  const auto caps = dpdn_node_capacitances(net, tech, sizing);
  const double total = total_internal_capacitance(net, tech, sizing);
  EXPECT_NEAR(total, caps[3], 1e-21);  // only node W is internal
}

TEST(CapacitanceTest, InputLoadBalancedAcrossPolarities) {
  // For the FC AND-NAND both polarities of each input drive one device.
  VarTable vars;
  const ExprPtr f = parse_expression("A.B", vars);
  const DpdnNetwork net = synthesize_fc_dpdn(f, 2);
  const Technology tech = Technology::generic_180nm();
  const SizingPlan sizing = SizingPlan::defaults(tech);
  for (VarId v = 0; v < 2; ++v) {
    EXPECT_DOUBLE_EQ(input_capacitance(net, tech, sizing, v, true),
                     input_capacitance(net, tech, sizing, v, false));
  }
}

TEST(CapacitanceTest, EnhancementIncreasesInputLoad) {
  // The §5 dummy devices load the input rails: the pass gate on A adds a
  // device to each polarity of A.
  VarTable vars;
  const ExprPtr f = parse_expression("A.B", vars);
  const DpdnNetwork fc = synthesize_fc_dpdn(f, 2);
  const DpdnNetwork enhanced = synthesize_enhanced_dpdn(f, 2);
  const Technology tech = Technology::generic_180nm();
  const SizingPlan sizing = SizingPlan::defaults(tech);
  EXPECT_GT(input_capacitance(enhanced, tech, sizing, 0, true),
            input_capacitance(fc, tech, sizing, 0, true));
}

}  // namespace
}  // namespace sable
