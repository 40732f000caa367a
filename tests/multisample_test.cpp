// Tests for time-resolved (per-logic-level) traces and time-resolved CPA.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "cell/builder.hpp"
#include "cell/circuit_sim.hpp"
#include "crypto/sboxes.hpp"
#include "dpa/streaming.hpp"
#include "expr/factoring.hpp"
#include "expr/parser.hpp"
#include "util/rng.hpp"

namespace sable {
namespace {

const Technology kTech = Technology::generic_180nm();

TEST(GateLevelsTest, LevelizationFollowsTopology) {
  VarTable vars;
  const ExprPtr f = parse_expression("(A.B + C).D", vars);
  const GateCircuit circuit =
      build_from_expressions({f}, 4, NetworkVariant::kFullyConnected, kTech);
  const auto levels = gate_levels(circuit);
  ASSERT_EQ(levels.size(), 3u);  // AND, OR, AND
  EXPECT_EQ(levels[0], 1u);
  EXPECT_EQ(levels[1], 2u);
  EXPECT_EQ(levels[2], 3u);
}

TEST(SampledCycleTest, LevelEnergiesSumToCycleEnergy) {
  VarTable vars;
  const ExprPtr f = parse_expression("A.(B + C.D) + B'.D", vars);
  const GateCircuit circuit =
      build_from_expressions({f}, 4, NetworkVariant::kGenuine, kTech);
  DifferentialCircuitSim scalar(circuit);
  DifferentialCircuitSim sampled(circuit);
  for (std::uint64_t a = 0; a < 16; ++a) {
    const CycleResult total = scalar.cycle(a);
    const SampledCycleResult split = sampled.cycle_sampled(a);
    const double sum = std::accumulate(split.level_energy.begin(),
                                       split.level_energy.end(), 0.0);
    EXPECT_NEAR(sum, total.energy, 1e-20) << a;
    EXPECT_EQ(split.outputs, total.outputs) << a;
  }
}

TEST(MultisampleCpaTest, RecoversKeyAndLocalizesLeak) {
  // Static CMOS S-box: the S-box output gates sit in the last levels, so
  // the leak should be found and the attack must recover the key.
  const SboxSpec spec = present_spec();
  std::vector<ExprPtr> bits;
  for (std::size_t b = 0; b < spec.out_bits; ++b) {
    bits.push_back(factored_form(sbox_output_bit(spec, b)));
  }
  const GateCircuit circuit = build_from_expressions(
      bits, spec.in_bits, NetworkVariant::kFullyConnected, kTech);
  CmosCircuitSim sim(circuit, 5e-15 * kTech.vdd * kTech.vdd);

  DifferentialCircuitSim level_helper(circuit);
  const std::size_t levels = level_helper.num_levels();
  ASSERT_GT(levels, 1u);

  Rng rng(0xBEE);
  const std::uint8_t key = 0x9;
  StreamingCpa cpa =
      StreamingCpa::time_resolved(spec, PowerModel::kHammingWeight, levels);
  // CMOS level-resolved trace: recompute with a sampled CMOS run by
  // splitting per level through a fresh simulator per trace column is
  // overkill; instead distribute the scalar energy onto the last level and
  // noise on the others — a worst-case-localized leak.
  for (std::size_t i = 0; i < 3000; ++i) {
    const auto pt = static_cast<std::uint8_t>(rng.below(16));
    const auto x = static_cast<std::uint8_t>(pt ^ key);
    std::vector<double> row(levels, 0.0);
    for (auto& v : row) v = 2e-16 * rng.gaussian();
    row[levels - 1] += sim.cycle(x).energy;
    cpa.add_block(&pt, row.data(), 1);
  }
  const MultiAttackResult result = cpa.result();
  EXPECT_EQ(result.combined.rank_of(key), 0u);
  EXPECT_EQ(result.best_sample, levels - 1) << "leak must localize in time";
}

TEST(MultisampleCpaTest, FullyConnectedFlatAtEverySample) {
  const SboxSpec spec = present_spec();
  std::vector<ExprPtr> bits;
  for (std::size_t b = 0; b < spec.out_bits; ++b) {
    bits.push_back(factored_form(sbox_output_bit(spec, b)));
  }
  const GateCircuit circuit = build_from_expressions(
      bits, spec.in_bits, NetworkVariant::kFullyConnected, kTech);
  DifferentialCircuitSim sim(circuit);

  Rng rng(0xFEE);
  const std::uint8_t key = 0x4;
  StreamingCpa cpa = StreamingCpa::time_resolved(
      spec, PowerModel::kHammingWeight, sim.num_levels());
  for (std::size_t i = 0; i < 2000; ++i) {
    const auto pt = static_cast<std::uint8_t>(rng.below(16));
    const auto x = static_cast<std::uint8_t>(pt ^ key);
    SampledCycleResult cycle = sim.cycle_sampled(x);
    for (auto& v : cycle.level_energy) v += 2e-16 * rng.gaussian();
    cpa.add_block(&pt, cycle.level_energy.data(), 1);
  }
  const MultiAttackResult result = cpa.result();
  EXPECT_LT(result.combined.score[result.combined.best_guess], 0.12)
      << "every sample of an FC circuit should be noise";
}

}  // namespace
}  // namespace sable
