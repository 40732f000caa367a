// Tests for the batched bit-parallel trace engine and the streaming
// attack accumulators: 64-wide simulation must be bit-exact against the
// scalar simulators, and one-pass CPA/DoM/MTD must reproduce the batch
// attack results.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "cell/builder.hpp"
#include "cell/circuit_sim.hpp"
#include "cell/wddl.hpp"
#include "core/fc_synthesizer.hpp"
#include "core/genuine_builder.hpp"
#include "dpa/attack.hpp"
#include "dpa/mtd.hpp"
#include "dpa/streaming.hpp"
#include "engine/trace_engine.hpp"
#include "expr/random_expr.hpp"
#include "expr/truth_table.hpp"
#include "power/stats.hpp"
#include "reference_attacks.hpp"
#include "switchsim/energy.hpp"
#include "util/rng.hpp"

namespace sable {
namespace {

const Technology kTech = Technology::generic_180nm();
constexpr std::size_t kLanes = SablGateSimBatch::kLanes;

// Lane words for 64 scalar assignments: word[v] bit L = bit v of plan[L].
std::vector<std::uint64_t> lane_words(const std::vector<std::uint64_t>& plan,
                                      std::size_t num_vars) {
  std::vector<std::uint64_t> words(num_vars, 0);
  pack_lane_words(plan.data(), plan.size(), words);
  return words;
}

TEST(BatchGateSimTest, LanesMatchScalarGateOnRandomNetworks) {
  Rng rng(0xBA7C);
  for (int round = 0; round < 6; ++round) {
    RandomExprOptions options;
    options.num_vars = 3;
    options.num_literals = 5;
    const ExprPtr f = random_nnf(rng, options);
    const DpdnNetwork net = round % 2 == 0
                                ? synthesize_fc_dpdn(f, options.num_vars)
                                : build_genuine_dpdn(f, options.num_vars);
    const SizingPlan sizing = SizingPlan::defaults(kTech);
    const GateEnergyModel model = build_gate_model(net, kTech, sizing);

    SablGateSimBatch batch(net, model);
    std::vector<SablGateSim> scalars;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      scalars.emplace_back(net, model);
    }

    for (int cycle = 0; cycle < 4; ++cycle) {
      std::vector<std::uint64_t> plan(kLanes);
      for (auto& a : plan) a = rng.below(std::uint64_t{1} << options.num_vars);
      double energy[kLanes];
      batch.cycle(lane_words(plan, options.num_vars), ~std::uint64_t{0},
                  energy);
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        EXPECT_EQ(energy[lane], scalars[lane].cycle(plan[lane]))
            << "round " << round << " cycle " << cycle << " lane " << lane;
      }
      // Charge state must agree per lane too (the §2 memory effect).
      for (NodeId n = 0; n < net.node_count(); ++n) {
        for (std::size_t lane = 0; lane < kLanes; ++lane) {
          EXPECT_EQ((batch.node_state_words()[n] >> lane) & 1u,
                    scalars[lane].node_state()[n] ? 1u : 0u);
        }
      }
    }
  }
}

// One randomized circuit shared by the circuit-level bit-exactness tests.
GateCircuit random_circuit(Rng& rng, std::size_t num_vars,
                           NetworkVariant variant) {
  RandomExprOptions options;
  options.num_vars = num_vars;
  options.num_literals = 7;
  std::vector<ExprPtr> outputs;
  for (int i = 0; i < 3; ++i) outputs.push_back(random_nnf(rng, options));
  return build_from_expressions(outputs, num_vars, variant, kTech);
}

// Lane `lane` of a batch cycle_sampled() against the width-1 adapter's
// cycle_sampled() on the same input, level by level.
template <typename Scalar>
void expect_sampled_lane_matches(const SampledBatchCycleResult& batch,
                                 std::size_t lane, Scalar& scalar,
                                 std::uint64_t input) {
  const SampledCycleResult ref = scalar.cycle_sampled(input);
  ASSERT_EQ(ref.level_energy.size(), batch.level_energy.size()) << lane;
  for (std::size_t l = 0; l < ref.level_energy.size(); ++l) {
    EXPECT_EQ(batch.level_energy[l][lane], ref.level_energy[l])
        << "lane " << lane << " level " << l;
  }
  EXPECT_EQ(outputs_for_lane(batch.output_words, lane), ref.outputs) << lane;
}

TEST(BatchCircuitSimTest, DifferentialLanesMatchScalar) {
  Rng rng(0x51AB);
  for (int round = 0; round < 3; ++round) {
    const auto variant =
        round == 0 ? NetworkVariant::kGenuine : NetworkVariant::kFullyConnected;
    const GateCircuit circuit = random_circuit(rng, 4, variant);
    DifferentialCircuitSimBatch batch(circuit);
    DifferentialCircuitSimBatch sampled_batch(circuit);
    std::vector<DifferentialCircuitSim> scalars;
    std::vector<DifferentialCircuitSim> sampled_scalars;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      scalars.emplace_back(circuit);
      sampled_scalars.emplace_back(circuit);
    }
    BatchCycleResult out;
    SampledBatchCycleResult sampled;
    for (int cycle = 0; cycle < 3; ++cycle) {
      std::vector<std::uint64_t> plan(kLanes);
      for (auto& a : plan) a = rng.below(16);
      batch.cycle(lane_words(plan, 4), ~std::uint64_t{0}, out);
      sampled_batch.cycle_sampled(lane_words(plan, 4), ~std::uint64_t{0},
                                  sampled);
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        expect_sampled_lane_matches(sampled, lane, sampled_scalars[lane],
                                    plan[lane]);
        const CycleResult ref = scalars[lane].cycle(plan[lane]);
        EXPECT_EQ(out.energy[lane], ref.energy) << lane;
        std::uint64_t outputs = 0;
        for (std::size_t i = 0; i < out.output_words.size(); ++i) {
          outputs |= ((out.output_words[i] >> lane) & 1u) << i;
        }
        EXPECT_EQ(outputs, ref.outputs) << lane;
        EXPECT_EQ(outputs, evaluate_circuit(circuit, plan[lane])) << lane;
      }
    }
  }
}

TEST(BatchCircuitSimTest, CmosLanesCarryIndependentHistory) {
  Rng rng(0xC305);
  const GateCircuit circuit =
      random_circuit(rng, 4, NetworkVariant::kFullyConnected);
  const double e_sw = 5e-15 * kTech.vdd * kTech.vdd;
  CmosCircuitSimBatch batch(circuit, e_sw);
  CmosCircuitSimBatch sampled_batch(circuit, e_sw);
  std::vector<CmosCircuitSim> scalars;
  std::vector<CmosCircuitSim> sampled_scalars;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    scalars.emplace_back(circuit, e_sw);
    sampled_scalars.emplace_back(circuit, e_sw);
  }
  BatchCycleResult out;
  SampledBatchCycleResult sampled;
  // Several cycles: Hamming-distance energy depends on each lane's own
  // previous values, so agreement here proves the histories do not mix.
  for (int cycle = 0; cycle < 5; ++cycle) {
    std::vector<std::uint64_t> plan(kLanes);
    for (auto& a : plan) a = rng.below(16);
    batch.cycle(lane_words(plan, 4), ~std::uint64_t{0}, out);
    sampled_batch.cycle_sampled(lane_words(plan, 4), ~std::uint64_t{0},
                                sampled);
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      expect_sampled_lane_matches(sampled, lane, sampled_scalars[lane],
                                  plan[lane]);
      const CycleResult ref = scalars[lane].cycle(plan[lane]);
      EXPECT_EQ(out.energy[lane], ref.energy)
          << "cycle " << cycle << " lane " << lane;
    }
  }
}

TEST(BatchCircuitSimTest, WddlLanesMatchScalar) {
  Rng rng(0x3DD1);
  const GateCircuit circuit =
      random_circuit(rng, 4, NetworkVariant::kFullyConnected);
  WddlCircuitSimBatch batch(circuit, kTech, 0.05);
  std::vector<WddlCircuitSim> scalars;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    scalars.emplace_back(circuit, kTech, 0.05);
  }
  BatchCycleResult out;
  SampledBatchCycleResult sampled;
  std::vector<std::uint64_t> plan(kLanes);
  for (auto& a : plan) a = rng.below(16);
  batch.cycle(lane_words(plan, 4), ~std::uint64_t{0}, out);
  batch.cycle_sampled(lane_words(plan, 4), ~std::uint64_t{0}, sampled);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    EXPECT_EQ(out.energy[lane], scalars[lane].cycle(plan[lane]).energy)
        << lane;
    expect_sampled_lane_matches(sampled, lane, scalars[lane], plan[lane]);
  }
}

TEST(BatchCircuitSimTest, CmosCycleSampledSplitsCycleEnergyByLevel) {
  Rng rng(0xC355);
  const GateCircuit circuit =
      random_circuit(rng, 4, NetworkVariant::kFullyConnected);
  const double e_sw = 5e-15 * kTech.vdd * kTech.vdd;
  // Twin sims fed the same sequence: the sampled rows must carry exactly
  // the cycle energy, split across the circuit's logic levels, with the
  // same per-lane transition history.
  CmosCircuitSimBatch whole(circuit, e_sw);
  CmosCircuitSimBatch sampled_sim(circuit, e_sw);
  ASSERT_GT(sampled_sim.num_levels(), 0u);
  BatchCycleResult out;
  SampledBatchCycleResult sampled;
  for (int cycle = 0; cycle < 4; ++cycle) {
    std::vector<std::uint64_t> plan(kLanes);
    for (auto& a : plan) a = rng.below(16);
    const auto words = lane_words(plan, 4);
    whole.cycle(words, ~std::uint64_t{0}, out);
    sampled_sim.cycle_sampled(words, ~std::uint64_t{0}, sampled);
    ASSERT_EQ(sampled.level_energy.size(), sampled_sim.num_levels());
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      double sum = 0.0;
      for (const auto& row : sampled.level_energy) sum += row[lane];
      EXPECT_NEAR(sum, out.energy[lane], 1e-12 * (out.energy[lane] + 1e-30))
          << "cycle " << cycle << " lane " << lane;
    }
    ASSERT_EQ(sampled.output_words.size(), out.output_words.size());
    for (std::size_t i = 0; i < out.output_words.size(); ++i) {
      EXPECT_EQ(sampled.output_words[i], out.output_words[i]) << i;
    }
  }
}

// Independent static-CMOS oracle: per lane, scalar gate values from
// evaluate_gates and a per-gate previous-value array. A gate that rises
// (or has no history yet) costs e_sw; its row is 0 for cycle() and its
// gate_levels() level for cycle_sampled(). Each run of consecutive gates
// sharing a row adds count * e_sw once — the order the batch sim adds in —
// so the comparison is bit for bit.
class CmosLaneOracle {
 public:
  CmosLaneOracle(const GateCircuit& circuit, double e_sw)
      : circuit_(circuit), e_sw_(e_sw), levels_(gate_levels(circuit)) {
    reset();
  }

  void reset() {
    previous_.assign(kLanes,
                     std::vector<bool>(circuit_.gates().size(), false));
    seen_.assign(kLanes, false);
  }

  struct LaneEnergy {
    double total = 0.0;         // cycle()
    std::vector<double> rows;   // cycle_sampled(), one per level
  };

  /// Advances `lane` by one cycle.
  LaneEnergy cycle(std::size_t lane, std::uint64_t input_bits) {
    const std::vector<bool> value = evaluate_gates(circuit_, input_bits);
    LaneEnergy energy;
    energy.rows.assign(
        *std::max_element(levels_.begin(), levels_.end()), 0.0);
    std::uint32_t total_count = 0;
    std::size_t run_row = 0;
    std::uint32_t run_count = 0;
    for (std::size_t g = 0; g < value.size(); ++g) {
      const std::size_t row = levels_[g] - 1;
      if (row != run_row) {
        energy.rows[run_row] += static_cast<double>(run_count) * e_sw_;
        run_row = row;
        run_count = 0;
      }
      if (value[g] && !(seen_[lane] && previous_[lane][g])) {
        ++total_count;
        ++run_count;
      }
      previous_[lane][g] = value[g];
    }
    energy.rows[run_row] += static_cast<double>(run_count) * e_sw_;
    energy.total = static_cast<double>(total_count) * e_sw_;
    seen_[lane] = true;
    return energy;
  }

 private:
  const GateCircuit& circuit_;
  double e_sw_;
  std::vector<std::size_t> levels_;
  std::vector<std::vector<bool>> previous_;  // [lane][gate]
  std::vector<bool> seen_;                   // lane has history
};

TEST(BatchCircuitSimTest, CmosMatchesIndependentLaneOracle) {
  Rng rng(0xC0C5);
  const double e_sw = 5e-15 * kTech.vdd * kTech.vdd;
  for (int round = 0; round < 3; ++round) {
    const GateCircuit circuit = random_circuit(
        rng, 5,
        round == 0 ? NetworkVariant::kGenuine
                   : NetworkVariant::kFullyConnected);
    CmosCircuitSimBatch whole(circuit, e_sw);
    CmosCircuitSimBatch sampled_sim(circuit, e_sw);
    CmosLaneOracle oracle(circuit, e_sw);
    const std::size_t levels = sampled_sim.num_levels();
    ASSERT_GT(levels, 0u);
    constexpr double kUntouched = -1.0;
    BatchCycleResult out;
    SampledBatchCycleResult sampled;
    // Chained cycles over full, sparse and single-lane masks, with a
    // reset() in the middle: every lane keeps its own history, and
    // unselected lanes neither advance nor have their slots written.
    const std::uint64_t full = ~std::uint64_t{0};
    const std::uint64_t quarter = rng.next() & rng.next();
    const std::uint64_t half = rng.next();
    const std::vector<std::uint64_t> masks = {
        full, quarter, std::uint64_t{1} << 37, full,
        0,    half,    full,                   1u};
    for (std::size_t step = 0; step < masks.size(); ++step) {
      if (step == 4) {
        whole.reset();
        sampled_sim.reset();
        oracle.reset();
      }
      const std::uint64_t mask = masks[step];
      std::vector<std::uint64_t> plan(kLanes);
      for (auto& a : plan) a = rng.below(32);
      const auto words = lane_words(plan, 5);
      out.energy.fill(kUntouched);
      sampled.level_energy.assign(levels, {});
      for (auto& row : sampled.level_energy) row.fill(kUntouched);
      whole.cycle(words, mask, out);
      sampled_sim.cycle_sampled(words, mask, sampled);
      ASSERT_EQ(sampled.level_energy.size(), levels);
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        if (((mask >> lane) & 1u) == 0) {
          EXPECT_EQ(out.energy[lane], kUntouched) << lane;
          for (const auto& row : sampled.level_energy) {
            EXPECT_EQ(row[lane], kUntouched) << lane;
          }
          continue;
        }
        const auto expected = oracle.cycle(lane, plan[lane]);
        EXPECT_EQ(out.energy[lane], expected.total)
            << "round " << round << " step " << step << " lane " << lane;
        ASSERT_EQ(expected.rows.size(), levels);
        for (std::size_t l = 0; l < levels; ++l) {
          EXPECT_EQ(sampled.level_energy[l][lane], expected.rows[l])
              << "round " << round << " step " << step << " lane " << lane
              << " level " << l;
        }
        EXPECT_EQ(outputs_for_lane(out.output_words, lane),
                  evaluate_circuit(circuit, plan[lane]));
      }
      if (::testing::Test::HasFailure()) return;  // one counterexample
    }
  }
}

TEST(BatchCircuitSimTest, WddlCycleSampledSplitsCycleEnergyByLevel) {
  Rng rng(0x3DD5);
  const GateCircuit circuit =
      random_circuit(rng, 4, NetworkVariant::kFullyConnected);
  WddlCircuitSimBatch whole(circuit, kTech, 0.05);
  WddlCircuitSimBatch sampled_sim(circuit, kTech, 0.05);
  ASSERT_GT(sampled_sim.num_levels(), 0u);
  BatchCycleResult out;
  SampledBatchCycleResult sampled;
  std::vector<std::uint64_t> plan(kLanes);
  for (auto& a : plan) a = rng.below(16);
  const auto words = lane_words(plan, 4);
  whole.cycle(words, ~std::uint64_t{0}, out);
  sampled_sim.cycle_sampled(words, ~std::uint64_t{0}, sampled);
  ASSERT_EQ(sampled.level_energy.size(), sampled_sim.num_levels());
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    double sum = 0.0;
    for (const auto& row : sampled.level_energy) sum += row[lane];
    EXPECT_NEAR(sum, out.energy[lane], 1e-12 * (out.energy[lane] + 1e-30))
        << lane;
  }

  // A perfectly balanced back-end leaks nothing into the time axis either:
  // every level's row is data-independent (equal across lanes).
  WddlCircuitSimBatch balanced(circuit, kTech, 0.0);
  balanced.cycle_sampled(words, ~std::uint64_t{0}, sampled);
  for (const auto& row : sampled.level_energy) {
    for (std::size_t lane = 1; lane < kLanes; ++lane) {
      EXPECT_EQ(row[lane], row[0]) << lane;
    }
  }
}

TEST(BatchCircuitSimTest, PartialLaneMaskLeavesOtherLanesUntouched) {
  Rng rng(0x9A5C);
  const GateCircuit circuit =
      random_circuit(rng, 4, NetworkVariant::kFullyConnected);
  const double e_sw = 5e-15 * kTech.vdd * kTech.vdd;
  CmosCircuitSimBatch batch(circuit, e_sw);
  CmosCircuitSim scalar(circuit, e_sw);
  BatchCycleResult out;
  // Lane 0 runs a 3-cycle sequence under a width-1 mask while the word
  // carries garbage in the other lanes; the result must track the scalar.
  for (std::uint64_t a : {0b1010ull, 0b0101ull, 0b1010ull}) {
    std::vector<std::uint64_t> words(4, 0);
    for (std::size_t v = 0; v < 4; ++v) {
      words[v] = ((a >> v) & 1u) | (rng.next() << 1);
    }
    batch.cycle(words, 1u, out);
    EXPECT_EQ(out.energy[0], scalar.cycle(a).energy);
  }
}

TEST(EnergyProfileTest, BatchProfileMatchesPerAssignmentSimulation) {
  Rng rng(0x00F1);
  RandomExprOptions options;
  options.num_vars = 4;
  options.num_literals = 6;
  const ExprPtr f = random_nnf(rng, options);
  const DpdnNetwork net = build_genuine_dpdn(f, options.num_vars);
  const SizingPlan sizing = SizingPlan::defaults(kTech);
  const GateEnergyModel model = build_gate_model(net, kTech, sizing);
  const EnergyProfile profile = profile_gate_energy(net, model);
  ASSERT_EQ(profile.energy_per_input.size(), 16u);
  for (std::size_t a = 0; a < 16; ++a) {
    SablGateSim sim(net, model);
    sim.cycle(a);
    EXPECT_EQ(profile.energy_per_input[a], sim.cycle(a)) << a;
  }
}

// ---- streaming accumulators ----------------------------------------------

TraceSet cmos_traces(std::size_t count, std::uint8_t key, std::uint64_t seed) {
  RoundTarget target(
      single_sbox_round(present_spec(), LogicStyle::kStaticCmos), kTech);
  Rng rng(seed);
  TraceSet traces;
  traces.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto pt = static_cast<std::uint8_t>(rng.below(16));
    traces.add(pt, target.trace(&pt, &key, 2e-16, rng));
  }
  return traces;
}

TEST(StreamingCpaTest, MatchesTwoPassPearson) {
  const TraceSet traces = cmos_traces(3000, 0xB, 0x7EA5);
  const SboxSpec spec = present_spec();
  for (PowerModel model :
       {PowerModel::kHammingWeight, PowerModel::kSboxOutputBit}) {
    StreamingCpa acc(spec, model, 1);
    acc.add_block(traces.plaintexts.data(), traces.samples.data(),
                  traces.size());
    const AttackResult streamed = acc.result().combined;
    const std::vector<double> reference =
        reference_cpa_scores(traces, spec, model, 1);
    ASSERT_EQ(streamed.score.size(), reference.size());
    for (std::size_t g = 0; g < reference.size(); ++g) {
      EXPECT_NEAR(streamed.score[g], reference[g], 1e-12) << g;
    }
  }
}

TEST(StreamingCpaTest, SplitFeedMatchesSingleFeed) {
  // Block boundaries change only the summation order: a split feed (the
  // MTD segment shape) stays within the 1e-12 budget of one block.
  const TraceSet traces = cmos_traces(1000, 0x4, 0x5717);
  const SboxSpec spec = present_spec();
  StreamingCpa whole(spec, PowerModel::kHammingWeight);
  whole.add_block(traces.plaintexts.data(), traces.samples.data(),
                  traces.size());
  StreamingCpa split(spec, PowerModel::kHammingWeight);
  split.add_block(traces.plaintexts.data(), traces.samples.data(), 311);
  split.add_block(traces.plaintexts.data() + 311, traces.samples.data() + 311,
                  traces.size() - 311);
  EXPECT_EQ(split.count(), whole.count());
  const AttackResult a = whole.result().combined;
  const AttackResult b = split.result().combined;
  for (std::size_t g = 0; g < a.score.size(); ++g) {
    EXPECT_NEAR(a.score[g], b.score[g], 1e-12) << g;
  }
}

TEST(StreamingDomTest, MatchesPartitionMeans) {
  const TraceSet traces = cmos_traces(2000, 0x6, 0xD0D0);
  const SboxSpec spec = present_spec();
  for (std::size_t bit = 0; bit < spec.out_bits; ++bit) {
    StreamingDom acc(spec, bit);
    acc.add_block(traces.plaintexts.data(), traces.samples.data(),
                  traces.size());
    const AttackResult streamed = acc.result();
    const std::vector<double> expected =
        reference_dom_scores(traces, spec, bit);
    ASSERT_EQ(streamed.score.size(), expected.size());
    for (std::size_t g = 0; g < expected.size(); ++g) {
      // The block path sums per plaintext first: only the addition order
      // differs from the trace-order partition sums. The score is a
      // difference of ~1e-13 J means, so the bound is 1e-12 relative to
      // those means, not to the (cancelled) score.
      EXPECT_NEAR(streamed.score[g], expected[g], 1e-12 * traces.samples[0])
          << g;
    }
  }
}

TEST(StreamingMultiCpaTest, MatchesPerColumnTwoPass) {
  const SboxSpec spec = present_spec();
  RoundTarget target(single_sbox_round(spec, LogicStyle::kSablGenuine), kTech);
  DifferentialCircuitSim sim(target.circuit(0));
  Rng rng(0x90FF);
  const std::uint8_t key = 0x9;
  MultiTraceSet traces;
  for (std::size_t i = 0; i < 1500; ++i) {
    const auto pt = static_cast<std::uint8_t>(rng.below(16));
    SampledCycleResult cycle =
        sim.cycle_sampled(static_cast<std::uint8_t>(pt ^ key));
    for (auto& v : cycle.level_energy) v += 1e-16 * rng.gaussian();
    traces.add(pt, cycle.level_energy);
  }
  StreamingCpa cpa = StreamingCpa::time_resolved(
      spec, PowerModel::kHammingWeight, traces.width);
  cpa.add_block(traces.plaintexts.data(), traces.samples.data(),
                traces.size());
  const MultiAttackResult streamed = cpa.result();
  const std::vector<double> combined =
      reference_multi_cpa_scores(traces, spec, PowerModel::kHammingWeight);
  for (std::size_t g = 0; g < combined.size(); ++g) {
    EXPECT_NEAR(streamed.combined.score[g], combined[g], 1e-12) << g;
  }
}

TEST(MtdCampaignTest, MatchesPrefixOracle) {
  // One campaign shard holds every trace, so the ladder alone cuts the
  // block: the checkpoint snapshots are segment-fed prefixes whose ranks
  // must equal a from-scratch two-pass CPA on every prefix.
  const std::uint8_t key = 0xB;
  const SboxSpec spec = present_spec();
  TraceEngine engine(spec, LogicStyle::kStaticCmos, kTech);
  CampaignOptions options;
  options.num_traces = 3000;
  options.key = {key};
  options.noise_sigma = 2e-16;
  options.seed = 0x17D7;
  options.shard_size = 4096;
  const TraceSet traces = engine.run(options);
  const auto checkpoints = default_checkpoints(traces.size());
  const MtdResult oracle = reference_mtd(
      traces, spec, PowerModel::kHammingWeight, key, checkpoints);
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  const MtdResult result = run_attack(
      engine, options,
      MtdDistinguisher(spec, selector, key, checkpoints, options.num_traces));
  EXPECT_TRUE(oracle.disclosed);
  EXPECT_EQ(result.disclosed, oracle.disclosed);
  EXPECT_EQ(result.mtd, oracle.mtd);
  EXPECT_EQ(result.rank_history, oracle.rank_history);

  // The snapshot scores behind those ranks: a segment-fed accumulator at
  // every checkpoint stays within 1e-12 of the prefix's two-pass scores.
  StreamingCpa acc(spec, PowerModel::kHammingWeight);
  std::size_t done = 0;
  for (std::size_t n : checkpoints) {
    acc.add_block(traces.plaintexts.data() + done,
                  traces.samples.data() + done, n - done);
    done = n;
    const std::vector<double> want = reference_cpa_scores(
        traces, spec, PowerModel::kHammingWeight, 0, n);
    const AttackResult got = acc.result().combined;
    ASSERT_EQ(got.score.size(), want.size());
    for (std::size_t g = 0; g < want.size(); ++g) {
      EXPECT_NEAR(got.score[g], want[g], 1e-12) << n << " guess " << g;
    }
  }
}

TEST(AttackResultTest, RankOfBreaksTiesByGuessIndex) {
  AttackResult result = make_attack_result({0.5, 0.5, 0.1, 0.5});
  EXPECT_EQ(result.best_guess, 0u);
  EXPECT_EQ(result.rank_of(0), 0u);
  EXPECT_EQ(result.rank_of(1), 1u);
  EXPECT_EQ(result.rank_of(3), 2u);
  EXPECT_EQ(result.rank_of(2), 3u);
}

// ---- engine ---------------------------------------------------------------

TEST(TraceEngineTest, CampaignMatchesScalarTarget) {
  // History-free styles: every lane computes the same energy a scalar
  // simulation of the same plaintext would, so an engine campaign must be
  // bit-identical to a scalar loop fed the same shard-derived
  // plaintext/noise streams in shard order.
  for (LogicStyle style :
       {LogicStyle::kSablFullyConnected, LogicStyle::kSablGenuine,
        LogicStyle::kWddlMismatched}) {
    TraceEngine engine(present_spec(), style, kTech);
    CampaignOptions options;
    options.num_traces = 500;
    options.key = {0x7};
    options.noise_sigma = 2e-16;
    options.seed = 0xFEED;
    options.shard_size = 128;  // several shards, one partial tail shard
    const TraceSet traces = engine.run(options);
    ASSERT_EQ(traces.size(), options.num_traces);

    // The stream is defined shard by shard: shard s draws plaintexts and
    // noise from campaign_shard_seed(seed, s, ·) and starts from fresh
    // simulator state, independent of every other shard.
    const std::size_t shard_size = campaign_shard_size(options);
    ASSERT_EQ(shard_size, 128u);
    RoundTarget reference(single_sbox_round(present_spec(), style), kTech);
    Rng no_noise(0);
    for (std::size_t start = 0, shard = 0; start < options.num_traces;
         start += shard_size, ++shard) {
      const std::size_t count =
          std::min(shard_size, options.num_traces - start);
      Rng pt_rng(campaign_shard_seed(options.seed, shard, 0));
      Rng noise_rng(campaign_shard_seed(options.seed, shard, 1));
      reference.reset_state();
      for (std::size_t i = 0; i < count; ++i) {
        const auto pt = static_cast<std::uint8_t>(pt_rng.below(16));
        EXPECT_EQ(traces.plaintexts[start + i], pt);
        const double energy =
            reference.trace(&pt, options.key.data(), 0.0, no_noise);
        const double noise = options.noise_sigma * noise_rng.gaussian();
        EXPECT_EQ(traces.samples[start + i], energy + noise) << start + i;
      }
    }

    // The thread count is a pure performance knob: any worker count
    // reproduces the identical trace sequence.
    for (std::size_t threads : {std::size_t{2}, std::size_t{5}}) {
      TraceEngine engine2(present_spec(), style, kTech);
      CampaignOptions parallel = options;
      parallel.num_threads = threads;
      const TraceSet traces2 = engine2.run(parallel);
      ASSERT_EQ(traces2.size(), traces.size());
      for (std::size_t i = 0; i < traces.size(); ++i) {
        EXPECT_EQ(traces2.plaintexts[i], traces.plaintexts[i]);
        EXPECT_EQ(traces2.samples[i], traces.samples[i]) << i;
      }
    }
  }
}

TEST(TraceEngineTest, CmosCampaignMatchesPerLaneScalarHistory) {
  // Static CMOS leaks through per-instance history: lane L of the engine
  // is a scalar simulator fed every 64th plaintext.
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  CampaignOptions options;
  options.num_traces = 256;
  options.key = {0x3};
  options.noise_sigma = 0.0;
  options.seed = 0xCAFE;
  const TraceSet traces = engine.run(options);

  // 256 traces fit one default-size shard, so the whole campaign draws
  // from shard 0's plaintext stream.
  Rng rng(campaign_shard_seed(options.seed, 0, 0));
  std::vector<std::uint8_t> pts(options.num_traces);
  for (auto& pt : pts) pt = static_cast<std::uint8_t>(rng.below(16));
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    RoundTarget reference(
        single_sbox_round(present_spec(), LogicStyle::kStaticCmos), kTech);
    Rng no_noise(0);
    for (std::size_t t = lane; t < options.num_traces; t += kLanes) {
      EXPECT_EQ(traces.plaintexts[t], pts[t]);
      EXPECT_EQ(traces.samples[t],
                reference.trace(&pts[t], options.key.data(), 0.0, no_noise))
          << "lane " << lane << " trace " << t;
    }
  }
}

TEST(TraceEngineTest, StreamingCampaignEqualsRetainedCampaign) {
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  CampaignOptions options;
  options.num_traces = 2000;
  options.key = {0xB};
  options.noise_sigma = 2e-16;
  options.seed = 0xABBA;
  // One shard keeps the comparison to a single block; the campaign's
  // block-factored accumulation still rounds differently than the
  // retained two-pass Pearson attack, so the scores agree to the
  // pipeline's documented <= 1e-12 budget rather than bit-exactly.
  options.shard_size = 4096;
  const TraceSet traces = engine.run(options);
  const AttackResult batch =
      cpa_attack(traces, present_spec(), PowerModel::kHammingWeight);

  TraceEngine engine2(present_spec(), LogicStyle::kStaticCmos, kTech);
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  const AttackResult streamed =
      run_attack(engine2, options, CpaDistinguisher(engine2.spec(), selector));
  ASSERT_EQ(streamed.score.size(), batch.score.size());
  for (std::size_t g = 0; g < batch.score.size(); ++g) {
    EXPECT_NEAR(streamed.score[g], batch.score[g], 1e-12) << g;
  }
  EXPECT_EQ(streamed.best_guess, options.key[0]);

  // And the one-pass MTD campaign agrees with the prefix oracle over the
  // retained traces.
  TraceEngine engine3(present_spec(), LogicStyle::kStaticCmos, kTech);
  const auto checkpoints = default_checkpoints(options.num_traces);
  const MtdResult streamed_mtd = run_attack(
      engine3, options,
      MtdDistinguisher(engine3.spec(), selector, options.key[0], checkpoints,
                       options.num_traces));
  const MtdResult prefix =
      reference_mtd(traces, present_spec(), PowerModel::kHammingWeight,
                    options.key[0], checkpoints);
  EXPECT_EQ(streamed_mtd.disclosed, prefix.disclosed);
  EXPECT_EQ(streamed_mtd.mtd, prefix.mtd);
  EXPECT_EQ(streamed_mtd.rank_history, prefix.rank_history);
}

TEST(TraceEngineTest, RepeatedCampaignsOnOneEngineAreReproducible) {
  // Static CMOS carries per-lane history; stream() must reset it so the
  // same seed yields the same traces no matter what ran before.
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  CampaignOptions options;
  options.num_traces = 300;
  options.key = {0x9};
  options.noise_sigma = 0.0;
  options.seed = 0xD1CE;
  const TraceSet first = engine.run(options);
  CampaignOptions other = options;
  other.seed = 0xBEEF;  // interleave a campaign with a different stream
  engine.run(other);
  const TraceSet second = engine.run(options);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first.plaintexts[i], second.plaintexts[i]);
    EXPECT_EQ(first.samples[i], second.samples[i]) << i;
  }
}

TEST(TraceEngineTest, RejectsBadNoiseSigmaBeforeAnyShardRuns) {
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  const std::string corpus =
      (std::filesystem::temp_directory_path() /
       ("sable_bad_sigma_" + std::to_string(::getpid()) + ".sablcorp"))
          .string();
  for (const double sigma : {std::nan(""), HUGE_VAL, -HUGE_VAL, -1e-16}) {
    CampaignOptions options;
    options.num_traces = 256;
    options.noise_sigma = sigma;
    bool sink_called = false;
    const auto sink = [&](const std::uint8_t*, const double*, std::size_t) {
      sink_called = true;
    };
    EXPECT_THROW(engine.run(options), InvalidArgument) << sigma;
    EXPECT_THROW(engine.stream(options, sink), InvalidArgument);
    EXPECT_THROW(engine.stream_sampled(options, sink), InvalidArgument);
    EXPECT_FALSE(sink_called);
    EXPECT_THROW(engine.record(options, TraceDataKind::kScalar, corpus),
                 InvalidArgument);
    EXPECT_FALSE(std::filesystem::exists(corpus));
    CpaDistinguisher cpa(engine.spec(),
                         AttackSelector{.model = PowerModel::kHammingWeight});
    std::vector<Distinguisher*> list = {&cpa};
    EXPECT_THROW(engine.run_distinguishers(options, list), InvalidArgument);
    // Rejected before the (missing) partial file is even opened.
    EXPECT_THROW(engine.merge_partials(options, list, {corpus}),
                 InvalidArgument);
  }
}

TEST(TraceEngineTest, ConstantPowerStylesStayFlatAtScale) {
  TraceEngine engine(present_spec(), LogicStyle::kSablFullyConnected, kTech);
  CampaignOptions options;
  options.num_traces = 4000;
  options.key = {0x5};
  options.noise_sigma = 1e-16;
  options.seed = 0x5AB1;
  const AttackResult result = run_attack(
      engine, options,
      CpaDistinguisher(engine.spec(),
                       AttackSelector{.model = PowerModel::kHammingWeight}));
  EXPECT_LT(result.score[result.best_guess], 0.1);
}

// ---- persistent worker pool -----------------------------------------------

// Multi-shard campaign: 1500 traces over 448-trace shards, one partial
// tail.
CampaignOptions sharded_options() {
  CampaignOptions options;
  options.num_traces = 1500;
  options.key = {0xB};
  options.noise_sigma = 2e-16;
  options.seed = 0x5EED;
  options.shard_size = 448;  // several shards, one partial tail
  return options;
}

// Workers are cloned once per engine and reused across campaigns; a stale
// worker (CMOS history from an earlier campaign) must never leak into the
// next campaign's traces.
TEST(TraceEngineTest, PersistentWorkerPoolReusesCleanWorkers) {
  TraceEngine reused(present_spec(), LogicStyle::kStaticCmos, kTech);
  CampaignOptions first;
  first.num_traces = 500;
  first.key = {0x3};
  first.seed = 0xAAAA;
  reused.run(first);  // leaves workers (with history) in the pool

  CampaignOptions second = sharded_options();
  const TraceSet pooled = reused.run(second);
  TraceEngine fresh(present_spec(), LogicStyle::kStaticCmos, kTech);
  const TraceSet reference = fresh.run(second);
  ASSERT_EQ(pooled.size(), reference.size());
  for (std::size_t t = 0; t < reference.size(); ++t) {
    ASSERT_EQ(pooled.samples[t], reference.samples[t]) << t;
  }

  // Attack campaigns after trace campaigns share the same pool.
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  const AttackResult pooled_cpa =
      run_attack(reused, second, CpaDistinguisher(reused.spec(), selector));
  const AttackResult fresh_cpa =
      run_attack(fresh, second, CpaDistinguisher(fresh.spec(), selector));
  ASSERT_EQ(pooled_cpa.score.size(), fresh_cpa.score.size());
  for (std::size_t g = 0; g < fresh_cpa.score.size(); ++g) {
    EXPECT_EQ(pooled_cpa.score[g], fresh_cpa.score[g]) << g;
  }
}

// ---- sampled campaigns across styles --------------------------------------

TEST(TraceEngineTest, SampledRowsSumToStreamedSamplesEveryStyle) {
  for (LogicStyle style :
       {LogicStyle::kStaticCmos, LogicStyle::kSablGenuine,
        LogicStyle::kSablFullyConnected, LogicStyle::kSablEnhanced,
        LogicStyle::kWddlBalanced, LogicStyle::kWddlMismatched}) {
    TraceEngine engine(present_spec(), style, kTech);
    const std::size_t width = engine.target().num_levels();
    ASSERT_GT(width, 0u) << to_string(style);
    CampaignOptions options;
    options.num_traces = 320;
    options.key = {0x9};
    options.seed = 0xE4E4;
    options.shard_size = 128;
    std::vector<double> row_sums;
    engine.stream_sampled(options, [&](const std::uint8_t*,
                                       const double* rows, std::size_t n) {
      for (std::size_t t = 0; t < n; ++t) {
        double sum = 0.0;
        for (std::size_t l = 0; l < width; ++l) sum += rows[t * width + l];
        row_sums.push_back(sum);
      }
    });
    std::vector<double> samples;
    engine.stream(options, [&](const std::uint8_t*, const double* s,
                               std::size_t n) {
      samples.insert(samples.end(), s, s + n);
    });
    ASSERT_EQ(row_sums.size(), samples.size());
    for (std::size_t t = 0; t < samples.size(); ++t) {
      EXPECT_NEAR(row_sums[t], samples[t],
                  1e-12 * std::fabs(samples[t]) + 1e-30)
          << to_string(style) << " trace " << t;
    }
  }
}

}  // namespace
}  // namespace sable
