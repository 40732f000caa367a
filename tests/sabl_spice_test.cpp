// Integration tests: the full transistor-level SABL gate in the mini-SPICE
// engine. These are the executable form of the paper's Fig. 3/4 experiment:
// functional correctness of the sense amplifier, complete discharge of X
// and Y, and the constancy (or not) of the per-cycle supply energy.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/enhancer.hpp"
#include "core/fc_synthesizer.hpp"
#include "core/genuine_builder.hpp"
#include "expr/parser.hpp"
#include "expr/truth_table.hpp"
#include "sabl/testbench.hpp"
#include "util/error.hpp"

namespace sable {
namespace {

const Technology kTech = Technology::generic_180nm();

double ned_of(const std::vector<CycleMeasurement>& cycles) {
  double lo = cycles.front().energy;
  double hi = lo;
  for (const auto& c : cycles) {
    lo = std::min(lo, c.energy);
    hi = std::max(hi, c.energy);
  }
  return (hi - lo) / hi;
}

TEST(SablSpiceTest, AndNandGateComputesCorrectly) {
  VarTable vars;
  const ExprPtr f = parse_expression("A.B", vars);
  const DpdnNetwork net = synthesize_fc_dpdn(f, 2);
  const SizingPlan sizing = SizingPlan::defaults(kTech);
  const std::vector<std::uint64_t> seq = {0b00, 0b01, 0b10, 0b11};
  const SablRunResult run = run_sabl_sequence(net, vars, kTech, sizing, seq);

  ASSERT_EQ(run.cycles.size(), seq.size());
  for (std::size_t k = 0; k < seq.size(); ++k) {
    // Sample the outputs near the end of the evaluation phase.
    const double t = run.cycle_start[k] + run.period * 0.48;
    const std::size_t s = run.waves.sample_at(t);
    const bool expected = evaluate(f, seq[k]);
    const double out = run.waves.v("out")[s];
    const double outb = run.waves.v("outb")[s];
    EXPECT_NEAR(out, expected ? kTech.vdd : 0.0, 0.1) << "cycle " << k;
    EXPECT_NEAR(outb, expected ? 0.0 : kTech.vdd, 0.1) << "cycle " << k;
  }
}

TEST(SablSpiceTest, BothDpdnOutputsDischargeEveryEvaluation) {
  // The paper: "whichever branch is on, X and Y are connected through M1
  // and both nodes will eventually be discharged."
  VarTable vars;
  const ExprPtr f = parse_expression("A.B", vars);
  const DpdnNetwork net = synthesize_fc_dpdn(f, 2);
  const SizingPlan sizing = SizingPlan::defaults(kTech);
  const std::vector<std::uint64_t> seq = {0b00, 0b11, 0b01};
  const SablRunResult run = run_sabl_sequence(net, vars, kTech, sizing, seq);
  for (std::size_t k = 0; k < seq.size(); ++k) {
    const double t = run.cycle_start[k] + run.period * 0.48;
    const std::size_t s = run.waves.sample_at(t);
    EXPECT_LT(run.waves.v("x")[s], 0.1) << "cycle " << k;
    EXPECT_LT(run.waves.v("y")[s], 0.1) << "cycle " << k;
    EXPECT_LT(run.waves.v("z")[s], 0.1) << "cycle " << k;
  }
}

TEST(SablSpiceTest, ExactlyOneChargingEventPerCycle) {
  // §2 condition 1: every cycle draws one charge packet; no cycle is free.
  VarTable vars;
  const ExprPtr f = parse_expression("A.B", vars);
  const DpdnNetwork net = synthesize_fc_dpdn(f, 2);
  const SizingPlan sizing = SizingPlan::defaults(kTech);
  // Repeated identical inputs still switch (dynamic logic).
  const std::vector<std::uint64_t> seq = {0b11, 0b11, 0b11, 0b00, 0b00};
  const SablRunResult run = run_sabl_sequence(net, vars, kTech, sizing, seq);
  for (const auto& c : run.cycles) {
    EXPECT_GT(c.charge, 30e-15) << "cycle must draw a full charge packet";
  }
}

TEST(SablSpiceTest, FullyConnectedIsFlatterThanGenuine) {
  VarTable vars;
  const ExprPtr f = parse_expression("A.B", vars);
  const SizingPlan sizing = SizingPlan::defaults(kTech);
  const std::vector<std::uint64_t> seq = {0b11, 0b00, 0b00, 0b01,
                                          0b10, 0b11, 0b00};
  const DpdnNetwork genuine = build_genuine_dpdn(f, 2);
  const DpdnNetwork fc = synthesize_fc_dpdn(f, 2);
  const SablRunResult run_gen =
      run_sabl_sequence(genuine, vars, kTech, sizing, seq);
  const SablRunResult run_fc = run_sabl_sequence(fc, vars, kTech, sizing, seq);
  const double ned_gen = ned_of(run_gen.cycles);
  const double ned_fc = ned_of(run_fc.cycles);
  EXPECT_GT(ned_gen, 0.02);        // memory effect visible
  EXPECT_LT(ned_fc, ned_gen / 3);  // FC flattens it by a large factor
  EXPECT_LT(ned_fc, 0.02);
}

TEST(SablSpiceTest, RechargedCapacitanceNearlyEqualAcrossInputs) {
  // Fig. 4: C_tot(0,1) = 19.32 fF vs C_tot(1,1) = 19.38 fF (0.3% apart).
  VarTable vars;
  const ExprPtr f = parse_expression("A.B", vars);
  const DpdnNetwork net = synthesize_fc_dpdn(f, 2);
  const SizingPlan sizing = SizingPlan::defaults(kTech);
  const std::vector<std::uint64_t> seq = {0b10, 0b11};  // (0,1) and (1,1)
  const SablRunResult run = run_sabl_sequence(net, vars, kTech, sizing, seq);
  ASSERT_EQ(run.cycles.size(), 2u);
  const double c01 = run.cycles[0].recharged_capacitance;
  const double c11 = run.cycles[1].recharged_capacitance;
  EXPECT_GT(c01, 5e-15);
  EXPECT_NEAR(c01, c11, 0.02 * c11);
}

// At a period of twice the 50 ps stimulus edge or less, a half period no
// longer holds an edge: both testbenches refuse it by name up front.
TEST(SablSpiceTest, RejectsAPeriodOfTwoEdgesOrLess) {
  VarTable vars;
  const ExprPtr f = parse_expression("A.B", vars);
  const DpdnNetwork net = synthesize_fc_dpdn(f, 2);
  const SizingPlan sizing = SizingPlan::defaults(kTech);
  const std::vector<std::uint64_t> seq = {0b10, 0b11};
  try {
    run_sabl_sequence(net, vars, kTech, sizing, seq, {.period = 1e-10});
    ADD_FAILURE() << "a 100 ps period was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(),
                 "testbench period must exceed twice the 50ps stimulus "
                 "edge, got 100ps");
  }
  EXPECT_THROW(
      run_sabl_sequence(net, vars, kTech, sizing, seq, {.period = 0.0}),
      InvalidArgument);
  EXPECT_THROW(
      run_cvsl_sequence(net, vars, kTech, sizing, seq, {.period = 1e-10}),
      InvalidArgument);
}

TEST(CvslSpiceTest, StaticGateHoldsItsOutputs) {
  VarTable vars;
  const ExprPtr f = parse_expression("A.B", vars);
  const DpdnNetwork net = build_genuine_dpdn(f, 2);
  const SizingPlan sizing = SizingPlan::defaults(kTech);
  const std::vector<std::uint64_t> seq = {0b11, 0b01, 0b11, 0b00};
  const SablRunResult run = run_cvsl_sequence(net, vars, kTech, sizing, seq);
  for (std::size_t k = 0; k < seq.size(); ++k) {
    const double t = run.cycle_start[k] + run.period * 0.9;
    const std::size_t s = run.waves.sample_at(t);
    const bool expected = evaluate(f, run.cycles[k].assignment);
    EXPECT_NEAR(run.waves.v("q")[s], expected ? kTech.vdd : 0.0, 0.15)
        << "cycle " << k;
  }
}

TEST(CvslSpiceTest, TransitionEnergyIsDataDependent) {
  // §2: the CVSL AND-NAND consumption varies strongly with the input event.
  VarTable vars;
  const ExprPtr f = parse_expression("A.B", vars);
  const DpdnNetwork net = build_genuine_dpdn(f, 2);
  const SizingPlan sizing = SizingPlan::defaults(kTech);
  const std::vector<std::uint64_t> seq = {0b00, 0b11, 0b00, 0b01,
                                          0b10, 0b11, 0b01};
  const SablRunResult run = run_cvsl_sequence(net, vars, kTech, sizing, seq);
  double lo = 1e9;
  double hi = 0.0;
  for (const auto& c : run.cycles) {
    lo = std::min(lo, c.energy);
    hi = std::max(hi, c.energy);
  }
  // Some transitions are free (no output change), some swing the outputs:
  // the spread must be large (the paper cites up to 50% for internal-node
  // effects alone; output transitions dominate even more).
  EXPECT_GT((hi - lo) / hi, 0.4);
}

}  // namespace
}  // namespace sable
