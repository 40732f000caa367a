// Tests for the switch-level gate energy model: discharge/recharge
// accounting, the memory effect of genuine networks, constancy for fully
// connected ones, and the NED/NSD profile machinery.
#include <gtest/gtest.h>

#include "cell/library.hpp"
#include "core/checks.hpp"
#include "core/enhancer.hpp"
#include "core/fc_synthesizer.hpp"
#include "core/genuine_builder.hpp"
#include "expr/parser.hpp"
#include "switchsim/cycle_sim.hpp"
#include "switchsim/energy.hpp"
#include "tech/capacitance.hpp"
#include "util/error.hpp"

namespace sable {
namespace {

const Technology kTech = Technology::generic_180nm();

struct GateUnderTest {
  DpdnNetwork net;
  GateEnergyModel model;
};

GateUnderTest make_gate(const char* expr_text, std::size_t n,
                        NetworkVariant variant) {
  VarTable vars;
  const ExprPtr f = parse_expression(expr_text, vars);
  DpdnNetwork net = [&] {
    switch (variant) {
      case NetworkVariant::kGenuine:
        return build_genuine_dpdn(f, n);
      case NetworkVariant::kFullyConnected:
        return synthesize_fc_dpdn(f, n);
      case NetworkVariant::kEnhanced:
        return synthesize_enhanced_dpdn(f, n);
    }
    throw InvalidArgument("bad variant");
  }();
  const SizingPlan sizing = SizingPlan::defaults(kTech);
  GateEnergyModel model = build_gate_model(net, kTech, sizing);
  return GateUnderTest{std::move(net), std::move(model)};
}

TEST(GateModelTest, CapacitancesArePositiveAndFinite) {
  const auto gate = make_gate("A.B", 2, NetworkVariant::kFullyConnected);
  ASSERT_EQ(gate.model.node_cap.size(), gate.net.node_count());
  for (double c : gate.model.node_cap) {
    EXPECT_GT(c, 0.0);
    EXPECT_LT(c, 1e-12);  // sane fF range
  }
  EXPECT_GT(gate.model.constant_energy, 0.0);
}

TEST(GateModelTest, MoreDevicesMeanMoreNodeCapacitance) {
  const auto fc = make_gate("A.B", 2, NetworkVariant::kFullyConnected);
  const auto enh = make_gate("A.B", 2, NetworkVariant::kEnhanced);
  const SizingPlan sizing = SizingPlan::defaults(kTech);
  EXPECT_GT(total_internal_capacitance(enh.net, kTech, sizing),
            total_internal_capacitance(fc.net, kTech, sizing));
}

TEST(CycleSimTest, FullyConnectedGateIsConstantEnergy) {
  const auto gate = make_gate("A.B", 2, NetworkVariant::kFullyConnected);
  SablGateSim sim(gate.net, gate.model);
  const double e0 = sim.cycle(0b00);
  for (std::uint64_t a : {0b01ull, 0b10ull, 0b11ull, 0b00ull, 0b11ull}) {
    EXPECT_DOUBLE_EQ(sim.cycle(a), e0);
  }
}

TEST(CycleSimTest, GenuineGateEnergyDependsOnInput) {
  const auto gate = make_gate("A.B", 2, NetworkVariant::kGenuine);
  SablGateSim sim(gate.net, gate.model);
  sim.cycle(0b11);
  const double e_connected = sim.cycle(0b11);  // W discharges and recharges
  const double e_floating = sim.cycle(0b00);   // W floats
  EXPECT_GT(e_connected, e_floating);
  // The difference is exactly the internal node capacitance energy.
  const double c_w = gate.model.node_cap[3];
  EXPECT_NEAR(e_connected - e_floating, c_w * kTech.vdd * kTech.vdd,
              1e-20);
}

TEST(CycleSimTest, FloatingNodeKeepsState) {
  const auto gate = make_gate("A.B", 2, NetworkVariant::kGenuine);
  SablGateSim sim(gate.net, gate.model);
  sim.cycle(0b11);  // W recharged at end of cycle
  EXPECT_TRUE(sim.node_state()[3]);
  sim.cycle(0b00);  // W floats: keeps charge
  EXPECT_TRUE(sim.node_state()[3]);
  sim.reset(false);
  EXPECT_FALSE(sim.node_state()[3]);
  sim.cycle(0b00);  // still floating: stays discharged
  EXPECT_FALSE(sim.node_state()[3]);
  sim.cycle(0b11);  // reconnected: discharge/recharge cycle
  EXPECT_TRUE(sim.node_state()[3]);
}

TEST(EnergyProfileTest, NedZeroForFullyConnected) {
  const auto gate = make_gate("(A+B).(C+D)", 4,
                              NetworkVariant::kFullyConnected);
  const EnergyProfile profile = profile_gate_energy(gate.net, gate.model);
  EXPECT_EQ(profile.energy_per_input.size(), 16u);
  EXPECT_NEAR(profile.spread.ned, 0.0, 1e-12);
  EXPECT_NEAR(profile.spread.nsd, 0.0, 1e-12);
}

TEST(EnergyProfileTest, NedPositiveForGenuine) {
  const auto gate = make_gate("(A+B).(C+D)", 4, NetworkVariant::kGenuine);
  const EnergyProfile profile = profile_gate_energy(gate.net, gate.model);
  EXPECT_GT(profile.spread.ned, 0.01);
  EXPECT_GT(profile.spread.nsd, 0.0);
  EXPECT_LT(profile.spread.min, profile.spread.max);
}

TEST(EnergyProfileTest, EnhancedCostsMoreButStaysConstant) {
  const auto fc = make_gate("A.B", 2, NetworkVariant::kFullyConnected);
  const auto enh = make_gate("A.B", 2, NetworkVariant::kEnhanced);
  const EnergyProfile p_fc = profile_gate_energy(fc.net, fc.model);
  const EnergyProfile p_enh = profile_gate_energy(enh.net, enh.model);
  EXPECT_NEAR(p_enh.spread.ned, 0.0, 1e-12);
  EXPECT_GT(p_enh.spread.mean, p_fc.spread.mean);
}

TEST(EnergyTraceTest, TraceMatchesManualCycles) {
  const auto gate = make_gate("A.B", 2, NetworkVariant::kGenuine);
  const std::vector<std::uint64_t> inputs = {0b11, 0b00, 0b01, 0b11};
  const auto trace = energy_trace(gate.net, gate.model, inputs);
  SablGateSim sim(gate.net, gate.model);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_DOUBLE_EQ(trace[i], sim.cycle(inputs[i])) << i;
  }
}

// Cross-validation against the structural analyses: a gate is constant-
// energy in the switch model iff its network is fully connected.
class VariantSweep
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(VariantSweep, ConstancyMatchesFullConnectivity) {
  const auto& [text, variant_int] = GetParam();
  const auto variant = static_cast<NetworkVariant>(variant_int);
  VarTable vars;
  const ExprPtr f = parse_expression(text, vars);
  const auto n = f->variables().size();
  const auto gate = make_gate(text, n, variant);
  const EnergyProfile profile = profile_gate_energy(gate.net, gate.model);
  const bool constant = profile.spread.ned < 1e-12;
  const bool fully_connected =
      check_full_connectivity(gate.net).fully_connected;
  EXPECT_EQ(constant, fully_connected) << text;
}

INSTANTIATE_TEST_SUITE_P(
    Gates, VariantSweep,
    ::testing::Combine(::testing::Values("A.B", "A + B", "(A+B).(C+D)",
                                         "A.B + C.D", "A.B' + A'.B",
                                         "A.(B + C)"),
                       ::testing::Values(0, 1, 2)));

}  // namespace
}  // namespace sable
