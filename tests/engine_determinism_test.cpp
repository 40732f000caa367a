// Thread-count invariance of the sharded TraceEngine and correctness of
// the mergeable streaming accumulators.
//
// The contract under test: a campaign is a fixed sequence of shards whose
// traces and accumulator merges depend only on the campaign options —
// never on the worker count or scheduling — so every result below must be
// bit-identical across num_threads ∈ {1, 2, 7, hardware_concurrency}; and
// merge() must agree with sequential accumulation to ~1e-12 relative.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cell/circuit_sim.hpp"
#include "dpa/attack.hpp"
#include "dpa/mtd.hpp"
#include "dpa/streaming.hpp"
#include "engine/trace_engine.hpp"
#include "io/corpus.hpp"
#include "io/manifest.hpp"
#include "reference_attacks.hpp"
#include "util/rng.hpp"

namespace sable {
namespace {

const Technology kTech = Technology::generic_180nm();

std::vector<std::size_t> thread_counts_under_test() {
  return {1, 2, 7,
          std::max<std::size_t>(1, std::thread::hardware_concurrency())};
}

// Multi-shard campaign: 3000 traces over 448-trace shards = 7 shards, one
// partial tail, so the merge path is genuinely exercised.
CampaignOptions sharded_options() {
  CampaignOptions options;
  options.num_traces = 3000;
  options.key = {0xB};
  options.noise_sigma = 2e-16;
  options.seed = 0x5EED;
  options.shard_size = 448;
  return options;
}

TEST(EngineDeterminismTest, RunIsBitIdenticalAcrossThreadCounts) {
  TraceEngine reference_engine(present_spec(), LogicStyle::kStaticCmos,
                               kTech);
  CampaignOptions options = sharded_options();
  options.num_threads = 1;
  const TraceSet reference = reference_engine.run(options);
  for (std::size_t threads : thread_counts_under_test()) {
    TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
    options.num_threads = threads;
    const TraceSet traces = engine.run(options);
    ASSERT_EQ(traces.size(), reference.size()) << threads;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(traces.plaintexts[i], reference.plaintexts[i])
          << "threads " << threads << " trace " << i;
      ASSERT_EQ(traces.samples[i], reference.samples[i])
          << "threads " << threads << " trace " << i;
    }
  }
}

TEST(EngineDeterminismTest, StreamDeliversCanonicalOrderAcrossThreadCounts) {
  CampaignOptions options = sharded_options();
  options.num_threads = 1;
  TraceEngine reference_engine(present_spec(), LogicStyle::kSablGenuine,
                               kTech);
  const TraceSet reference = reference_engine.run(options);
  for (std::size_t threads : thread_counts_under_test()) {
    TraceEngine engine(present_spec(), LogicStyle::kSablGenuine, kTech);
    options.num_threads = threads;
    TraceSet collected;
    collected.reserve(options.num_traces);
    engine.stream(options,
                  [&](const std::uint8_t* pts, const double* samples,
                      std::size_t n) {
                    collected.plaintexts.insert(collected.plaintexts.end(),
                                                pts, pts + n);
                    collected.samples.insert(collected.samples.end(), samples,
                                             samples + n);
                  });
    ASSERT_EQ(collected.size(), reference.size()) << threads;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(collected.plaintexts[i], reference.plaintexts[i])
          << "threads " << threads << " trace " << i;
      ASSERT_EQ(collected.samples[i], reference.samples[i])
          << "threads " << threads << " trace " << i;
    }
  }
}

TEST(EngineDeterminismTest, CpaCampaignIsBitIdenticalAcrossThreadCounts) {
  CampaignOptions options = sharded_options();
  options.num_threads = 1;
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  TraceEngine reference_engine(present_spec(), LogicStyle::kStaticCmos,
                               kTech);
  const AttackResult reference =
      run_attack(reference_engine, options,
                 CpaDistinguisher(reference_engine.spec(), selector));
  EXPECT_EQ(reference.best_guess, options.key[0]);
  for (std::size_t threads : thread_counts_under_test()) {
    TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
    options.num_threads = threads;
    const AttackResult result =
        run_attack(engine, options, CpaDistinguisher(engine.spec(), selector));
    ASSERT_EQ(result.score.size(), reference.score.size());
    for (std::size_t g = 0; g < reference.score.size(); ++g) {
      // EXPECT_EQ on doubles is exact equality: bit-identical, not close.
      EXPECT_EQ(result.score[g], reference.score[g])
          << "threads " << threads << " guess " << g;
    }
    EXPECT_EQ(result.best_guess, reference.best_guess) << threads;
    EXPECT_EQ(result.margin, reference.margin) << threads;
  }
}

TEST(EngineDeterminismTest, DomCampaignIsBitIdenticalAcrossThreadCounts) {
  CampaignOptions options = sharded_options();
  options.num_threads = 1;
  TraceEngine reference_engine(present_spec(), LogicStyle::kStaticCmos,
                               kTech);
  const AttackSelector selector{.bit = 0};
  const AttackResult reference =
      run_attack(reference_engine, options,
                 DomDistinguisher(reference_engine.spec(), selector));
  for (std::size_t threads : thread_counts_under_test()) {
    TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
    options.num_threads = threads;
    const AttackResult result =
        run_attack(engine, options, DomDistinguisher(engine.spec(), selector));
    ASSERT_EQ(result.score.size(), reference.score.size());
    for (std::size_t g = 0; g < reference.score.size(); ++g) {
      EXPECT_EQ(result.score[g], reference.score[g])
          << "threads " << threads << " guess " << g;
    }
  }
}

TEST(EngineDeterminismTest, MtdCampaignIsBitIdenticalAcrossThreadCounts) {
  CampaignOptions options = sharded_options();
  options.num_threads = 1;
  const auto checkpoints = default_checkpoints(options.num_traces);
  TraceEngine reference_engine(present_spec(), LogicStyle::kStaticCmos,
                               kTech);
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  const MtdResult reference = run_attack(
      reference_engine, options,
      MtdDistinguisher(reference_engine.spec(), selector, options.key[0],
                       checkpoints, options.num_traces));
  EXPECT_TRUE(reference.disclosed);
  for (std::size_t threads : thread_counts_under_test()) {
    TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
    options.num_threads = threads;
    const MtdResult result = run_attack(
        engine, options,
        MtdDistinguisher(engine.spec(), selector, options.key[0], checkpoints,
                         options.num_traces));
    EXPECT_EQ(result.disclosed, reference.disclosed) << threads;
    EXPECT_EQ(result.mtd, reference.mtd) << threads;
    ASSERT_EQ(result.rank_history.size(), reference.rank_history.size());
    for (std::size_t i = 0; i < reference.rank_history.size(); ++i) {
      EXPECT_EQ(result.rank_history[i], reference.rank_history[i])
          << "threads " << threads << " checkpoint " << i;
    }
  }
}

// The MTD ladder cuts every shard into add_block segments. On a ragged
// layout (six 448-trace shards and a 312-trace tail) with checkpoints
// inside shards, exactly on shard boundaries, on the last trace and
// outside [2, num_traces] (dropped), the curve must be bit-identical
// across thread counts, and its ranks must equal
// a from-scratch two-pass CPA on every prefix. (No 2-trace checkpoint:
// there every non-constant prediction correlates at exactly |rho| = 1,
// so the rank among those ties is decided by rounding alone.)
TEST(EngineDeterminismTest, MtdCampaignOnRaggedShardsMatchesOracleEverywhere) {
  CampaignOptions options = sharded_options();
  options.num_threads = 1;
  const std::vector<std::size_t> checkpoints = {
      1, 16, 100, 447, 448, 449, 896, 1000, 1344, 1344, 2000,
      2688, 2689, 2999, 3000, 3001};
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  const MtdDistinguisher mtd(engine.spec(), selector, options.key[0],
                             checkpoints, options.num_traces);
  const MtdResult reference = run_attack(engine, options, mtd);
  const MtdResult oracle =
      reference_mtd(engine.run(options), present_spec(),
                    PowerModel::kHammingWeight, options.key[0], checkpoints);
  EXPECT_TRUE(oracle.disclosed);
  EXPECT_EQ(reference.disclosed, oracle.disclosed);
  EXPECT_EQ(reference.mtd, oracle.mtd);
  EXPECT_EQ(reference.rank_history, oracle.rank_history);
  ASSERT_EQ(reference.rank_history.size(), 13u);

  for (std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    options.num_threads = threads;
    const MtdResult result = run_attack(engine, options, mtd);
    EXPECT_EQ(result.disclosed, reference.disclosed);
    EXPECT_EQ(result.mtd, reference.mtd);
    EXPECT_EQ(result.rank_history, reference.rank_history)
        << "threads " << threads;
  }
}

// ---- accumulator merges ---------------------------------------------------

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

TEST(MergeTest, StreamingCpaMergeMatchesSequential) {
  const SboxSpec spec = present_spec();
  const TraceSet traces = cmos_traces(4000, 0x6, 0xCAB1E);
  StreamingCpa sequential(spec, PowerModel::kHammingWeight);
  sequential.add_block(traces.plaintexts.data(), traces.samples.data(),
                       traces.size());
  StreamingCpa merged(spec, PowerModel::kHammingWeight);
  const std::size_t bounds[] = {0, 700, 701, 2048, 4000};
  for (std::size_t p = 0; p + 1 < std::size(bounds); ++p) {
    StreamingCpa part(spec, PowerModel::kHammingWeight);
    part.add_block(traces.plaintexts.data() + bounds[p],
                   traces.samples.data() + bounds[p],
                   bounds[p + 1] - bounds[p]);
    merged.merge(part);
  }
  EXPECT_EQ(merged.count(), sequential.count());
  const AttackResult a = merged.result().combined;
  const AttackResult b = sequential.result().combined;
  ASSERT_EQ(a.score.size(), b.score.size());
  for (std::size_t g = 0; g < b.score.size(); ++g) {
    EXPECT_NEAR(a.score[g], b.score[g], 1e-12) << g;
  }
  EXPECT_EQ(a.best_guess, b.best_guess);
}

TEST(MergeTest, StreamingDomMergeMatchesSequential) {
  const SboxSpec spec = present_spec();
  const TraceSet traces = cmos_traces(3000, 0x9, 0xD0D1);
  for (std::size_t bit = 0; bit < 2; ++bit) {
    StreamingDom sequential(spec, bit);
    sequential.add_block(traces.plaintexts.data(), traces.samples.data(),
                         traces.size());
    StreamingDom merged(spec, bit);
    const std::size_t bounds[] = {0, 123, 2000, 3000};
    for (std::size_t p = 0; p + 1 < std::size(bounds); ++p) {
      StreamingDom part(spec, bit);
      part.add_block(traces.plaintexts.data() + bounds[p],
                     traces.samples.data() + bounds[p],
                     bounds[p + 1] - bounds[p]);
      merged.merge(part);
    }
    EXPECT_EQ(merged.count(), sequential.count());
    const AttackResult a = merged.result();
    const AttackResult b = sequential.result();
    for (std::size_t g = 0; g < b.score.size(); ++g) {
      EXPECT_NEAR(a.score[g], b.score[g], 1e-12 * (1.0 + b.score[g])) << g;
    }
  }
}

TEST(MergeTest, StreamingMultiCpaMergeMatchesSequential) {
  const SboxSpec spec = present_spec();
  RoundTarget target(single_sbox_round(spec, LogicStyle::kSablGenuine), kTech);
  DifferentialCircuitSim sim(target.circuit(0));
  Rng rng(0x3317);
  const std::uint8_t key = 0x4;
  MultiTraceSet traces;
  for (std::size_t i = 0; i < 1200; ++i) {
    const auto pt = static_cast<std::uint8_t>(rng.below(16));
    SampledCycleResult cycle =
        sim.cycle_sampled(static_cast<std::uint8_t>(pt ^ key));
    for (auto& v : cycle.level_energy) v += 1e-16 * rng.gaussian();
    traces.add(pt, cycle.level_energy);
  }
  StreamingCpa sequential = StreamingCpa::time_resolved(
      spec, PowerModel::kHammingWeight, traces.width);
  sequential.add_block(traces.plaintexts.data(), traces.samples.data(),
                       traces.size());
  StreamingCpa merged = StreamingCpa::time_resolved(
      spec, PowerModel::kHammingWeight, traces.width);
  const std::size_t bounds[] = {0, 311, 900, 1200};
  for (std::size_t p = 0; p + 1 < std::size(bounds); ++p) {
    StreamingCpa part = StreamingCpa::time_resolved(
        spec, PowerModel::kHammingWeight, traces.width);
    part.add_block(traces.plaintexts.data() + bounds[p],
                   traces.samples.data() + bounds[p] * traces.width,
                   bounds[p + 1] - bounds[p]);
    merged.merge(part);
  }
  const MultiAttackResult a = merged.result();
  const MultiAttackResult b = sequential.result();
  ASSERT_EQ(a.combined.score.size(), b.combined.score.size());
  for (std::size_t g = 0; g < b.combined.score.size(); ++g) {
    EXPECT_NEAR(a.combined.score[g], b.combined.score[g], 1e-12) << g;
  }
  EXPECT_EQ(a.best_sample, b.best_sample);
}

// The engine's attack reduction is the fixed-shape binary merge tree —
// not a left fold — and must be reproducible from the per-shard
// accumulators alone: accumulate every shard by hand in canonical order,
// reduce with merge_shard_tree, and require BIT-IDENTICAL scores.
TEST(MergeTest, EngineCpaEqualsFixedShapeTreeMerge) {
  const SboxSpec spec = present_spec();
  CampaignOptions options = sharded_options();
  TraceEngine engine(spec, LogicStyle::kStaticCmos, kTech);
  const TraceSet traces = engine.run(options);

  const std::size_t shard_size = campaign_shard_size(options);
  std::vector<StreamingCpa> shards;
  for (std::size_t start = 0; start < traces.size(); start += shard_size) {
    const std::size_t count = std::min(shard_size, traces.size() - start);
    StreamingCpa acc(spec, PowerModel::kHammingWeight);
    // The pipeline feeds each shard through the block-factored path.
    acc.add_block(traces.plaintexts.data() + start,
                  traces.samples.data() + start, count);
    shards.push_back(std::move(acc));
  }
  ASSERT_GT(shards.size(), 2u);
  const AttackResult tree =
      merge_shard_tree(std::move(shards)).result().combined;

  TraceEngine engine2(spec, LogicStyle::kStaticCmos, kTech);
  const AttackResult campaign = run_attack(
      engine2, options,
      CpaDistinguisher(spec,
                       AttackSelector{.model = PowerModel::kHammingWeight}));
  ASSERT_EQ(campaign.score.size(), tree.score.size());
  for (std::size_t g = 0; g < tree.score.size(); ++g) {
    EXPECT_EQ(campaign.score[g], tree.score[g]) << g;
  }
  EXPECT_EQ(campaign.best_guess, tree.best_guess);
  EXPECT_EQ(campaign.margin, tree.margin);
}

// ---- round targets --------------------------------------------------------

// Distinct subkeys so attacking instance i is distinguishable from
// attacking any other instance.
std::vector<std::size_t> round_subkeys(std::size_t n) {
  std::vector<std::size_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = (i * 7 + 3) & 0xF;
  return keys;
}

// The acceptance contract of the round-target redesign: a full 16-S-box
// PRESENT layer in the paper's enhanced style, attacked on one subkey
// through the selector API, is bit-identical for any worker count. Every
// worker runs a RoundTarget::clone(), so this also pins clone() fidelity
// under threading.
TEST(EngineDeterminismTest, RoundCpaCampaignBitIdenticalAcrossThreadCounts) {
  const RoundSpec round = present_round(16, LogicStyle::kSablEnhanced);
  CampaignOptions options;
  options.num_traces = 1500;
  options.key = round.pack_subkeys(round_subkeys(16));
  options.noise_sigma = 2e-16;
  options.seed = 0x16BEEF;
  options.shard_size = 448;
  options.num_threads = 1;
  const AttackSelector selector{.sbox_index = 3,
                                .model = PowerModel::kHammingWeight};
  TraceEngine reference_engine(round, kTech);
  const CpaDistinguisher cpa(reference_engine.spec(selector.sbox_index),
                             selector);
  const AttackResult reference = run_attack(reference_engine, options, cpa);
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, hw}) {
    TraceEngine engine(round, kTech);
    options.num_threads = threads;
    const AttackResult result = run_attack(engine, options, cpa);
    ASSERT_EQ(result.score.size(), reference.score.size());
    for (std::size_t g = 0; g < reference.score.size(); ++g) {
      EXPECT_EQ(result.score[g], reference.score[g])
          << "threads " << threads << " guess " << g;
    }
    EXPECT_EQ(result.best_guess, reference.best_guess) << threads;
    EXPECT_EQ(result.margin, reference.margin) << threads;
  }
}

// The same contract on one engine: every run below reuses its persistent
// worker pool and leased targets, which must carry no state from one
// campaign into the next.
TEST(EngineDeterminismTest, RoundCpaCampaignBitIdenticalOnOneEngine) {
  const RoundSpec round = present_round(16, LogicStyle::kSablEnhanced);
  CampaignOptions options;
  options.num_traces = 900;
  options.key = round.pack_subkeys(round_subkeys(16));
  options.noise_sigma = 2e-16;
  options.seed = 0x16A8E5;
  options.shard_size = 448;
  options.num_threads = 1;
  const AttackSelector selector{.sbox_index = 5,
                                .model = PowerModel::kHammingWeight};
  TraceEngine engine(round, kTech);
  const CpaDistinguisher cpa(engine.spec(selector.sbox_index), selector);
  const AttackResult reference = run_attack(engine, options, cpa);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    options.num_threads = threads;
    const AttackResult result = run_attack(engine, options, cpa);
    ASSERT_EQ(result.score.size(), reference.score.size());
    for (std::size_t g = 0; g < reference.score.size(); ++g) {
      EXPECT_EQ(result.score[g], reference.score[g])
          << "threads " << threads << " guess " << g;
    }
    EXPECT_EQ(result.best_guess, reference.best_guess) << threads;
    EXPECT_EQ(result.margin, reference.margin) << threads;
  }
}

// The new distinguisher pipeline inherits the determinism contract: a
// second-order centered-product campaign must be bit-identical across
// worker counts — the fourth-order co-moment merges run through the same
// fixed-shape tree.
TEST(EngineDeterminismTest, SecondOrderCampaignBitIdenticalAcrossThreadCounts) {
  const RoundSpec round = present_round(2, LogicStyle::kStaticCmos);
  CampaignOptions options;
  options.num_traces = 1200;
  options.key = round.pack_subkeys(round_subkeys(2));
  options.noise_sigma = 2e-16;
  options.seed = 0x20CDE;
  options.shard_size = 448;
  options.num_threads = 1;
  const AttackSelector selector{.sbox_index = 1,
                                .model = PowerModel::kHammingWeight};
  TraceEngine engine(round, kTech);
  const SecondOrderCpaDistinguisher attack(engine.spec(selector.sbox_index),
                                           selector);
  const SecondOrderAttackResult reference =
      run_attack(engine, options, attack);
  for (std::size_t threads :
       {std::size_t{1}, std::size_t{2},
        std::max<std::size_t>(1, std::thread::hardware_concurrency())}) {
    options.num_threads = threads;
    const SecondOrderAttackResult result = run_attack(engine, options, attack);
    ASSERT_EQ(result.combined.score.size(), reference.combined.score.size());
    for (std::size_t g = 0; g < reference.combined.score.size(); ++g) {
      EXPECT_EQ(result.combined.score[g], reference.combined.score[g])
          << "threads " << threads << " guess " << g;
    }
    EXPECT_EQ(result.combined.best_guess, reference.combined.best_guess);
    EXPECT_EQ(result.best_pair_first, reference.best_pair_first);
    EXPECT_EQ(result.best_pair_second, reference.best_pair_second);
  }
}

// One-pass multi-selector campaigns (every subkey from one simulation)
// carry the same guarantee: scores per subkey bit-identical across
// num_threads.
TEST(EngineDeterminismTest, AllSubkeysCampaignBitIdenticalAcrossThreadCounts) {
  const RoundSpec round = present_round(4, LogicStyle::kSablGenuine);
  CampaignOptions options;
  options.num_traces = 1200;
  options.key = round.pack_subkeys(round_subkeys(4));
  options.noise_sigma = 2e-16;
  options.seed = 0xA11CDE;
  options.shard_size = 448;
  options.num_threads = 1;
  TraceEngine engine(round, kTech);
  // One CPA per subkey, every one driven by a single simulated campaign.
  const auto all_subkeys = [&] {
    std::vector<CpaDistinguisher> attacks;
    for (std::size_t i = 0; i < round.num_sboxes(); ++i) {
      attacks.emplace_back(
          engine.spec(i),
          AttackSelector{.sbox_index = i, .model = PowerModel::kHammingWeight});
    }
    std::vector<Distinguisher*> list;
    for (CpaDistinguisher& attack : attacks) list.push_back(&attack);
    engine.run_distinguishers(options, list);
    std::vector<AttackResult> results;
    for (const CpaDistinguisher& attack : attacks) {
      results.push_back(attack.result());
    }
    return results;
  };
  const std::vector<AttackResult> reference = all_subkeys();
  ASSERT_EQ(reference.size(), 4u);
  for (std::size_t threads :
       {std::size_t{1}, std::size_t{2},
        std::max<std::size_t>(1, std::thread::hardware_concurrency())}) {
    options.num_threads = threads;
    const std::vector<AttackResult> results = all_subkeys();
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      for (std::size_t g = 0; g < reference[i].score.size(); ++g) {
        EXPECT_EQ(results[i].score[g], reference[i].score[g])
            << "threads " << threads << " sbox " << i << " guess " << g;
      }
      EXPECT_EQ(results[i].best_guess, reference[i].best_guess)
          << "threads " << threads << " sbox " << i;
    }
  }
}

// shard_size = 0 engages the autotuner. The derived shard size is a pure
// function of num_traces (see campaign_shard_size), never of the worker
// count or the machine — so autotuned campaigns must
// carry the exact same bit-identity guarantee as pinned ones: same
// traces, same CPA scores, for every thread count. 3000 traces autotune
// to 1024-trace shards, so the merge path is genuinely multi-shard.
TEST(EngineDeterminismTest, AutotunedShardsBitIdenticalAcrossThreadCounts) {
  CampaignOptions options = sharded_options();
  options.shard_size = 0;  // autotune
  options.num_threads = 1;
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  const CpaDistinguisher attack(engine.spec(), selector);
  const TraceSet reference = engine.run(options);
  const AttackResult cpa_reference = run_attack(engine, options, attack);
  EXPECT_EQ(cpa_reference.best_guess, options.key[0]);
  for (std::size_t threads : thread_counts_under_test()) {
    options.num_threads = threads;
    const TraceSet traces = engine.run(options);
    ASSERT_EQ(traces.size(), reference.size()) << threads;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(traces.plaintexts[i], reference.plaintexts[i])
          << "threads " << threads << " trace " << i;
      ASSERT_EQ(traces.samples[i], reference.samples[i])
          << "threads " << threads << " trace " << i;
    }
    const AttackResult cpa = run_attack(engine, options, attack);
    ASSERT_EQ(cpa.score.size(), cpa_reference.score.size());
    for (std::size_t g = 0; g < cpa_reference.score.size(); ++g) {
      EXPECT_EQ(cpa.score[g], cpa_reference.score[g])
          << "threads " << threads << " guess " << g;
    }
    EXPECT_EQ(cpa.best_guess, cpa_reference.best_guess) << threads;
    EXPECT_EQ(cpa.margin, cpa_reference.margin) << threads;
  }
}

// Every style, every entry point: retained runs, first-order attacks
// (CPA, DoM, the ordered MTD fold) and time-resolved MultiCpa stay
// bit-identical across worker counts. 1500 traces over 448-trace shards
// leave a partial tail shard.
std::vector<LogicStyle> all_styles() {
  return {LogicStyle::kStaticCmos,         LogicStyle::kSablGenuine,
          LogicStyle::kSablFullyConnected, LogicStyle::kSablEnhanced,
          LogicStyle::kWddlBalanced,       LogicStyle::kWddlMismatched};
}

CampaignOptions ragged_options() {
  CampaignOptions options;
  options.num_traces = 1500;
  options.key = {0xB};
  options.noise_sigma = 2e-16;
  options.seed = 0x5EED;
  options.shard_size = 448;  // several shards, one partial tail
  return options;
}

// Worker counts each reference (run at the default count) is compared
// against.
constexpr std::size_t kThreadCounts[] = {1, 2, 7};

TEST(EngineDeterminismTest, RunCampaignBitIdenticalAcrossThreadsEveryStyle) {
  for (LogicStyle style : all_styles()) {
    TraceEngine engine(present_spec(), style, kTech);
    CampaignOptions options = ragged_options();
    const TraceSet reference = engine.run(options);
    for (std::size_t threads : kThreadCounts) {
      options.num_threads = threads;
      const TraceSet traces = engine.run(options);
      ASSERT_EQ(traces.size(), reference.size());
      for (std::size_t t = 0; t < reference.size(); ++t) {
        ASSERT_EQ(traces.plaintexts[t], reference.plaintexts[t])
            << to_string(style) << " threads " << threads << " trace " << t;
        ASSERT_EQ(traces.samples[t], reference.samples[t])
            << to_string(style) << " threads " << threads << " trace " << t;
      }
    }
  }
}

TEST(EngineDeterminismTest, AttackCampaignsBitIdenticalAcrossThreadCounts) {
  const AttackSelector cpa_sel{.model = PowerModel::kHammingWeight};
  for (LogicStyle style :
       {LogicStyle::kStaticCmos, LogicStyle::kSablEnhanced,
        LogicStyle::kWddlMismatched}) {
    TraceEngine engine(present_spec(), style, kTech);
    CampaignOptions options = ragged_options();
    const CpaDistinguisher cpa_attack(engine.spec(), cpa_sel);
    const DomDistinguisher dom_attack(engine.spec(), AttackSelector{.bit = 0});
    const MtdDistinguisher mtd_attack(
        engine.spec(), cpa_sel, engine.round().sub_word(options.key.data(), 0),
        default_checkpoints(options.num_traces), options.num_traces);
    const AttackResult cpa_ref = run_attack(engine, options, cpa_attack);
    const AttackResult dom_ref = run_attack(engine, options, dom_attack);
    const MtdResult mtd_ref = run_attack(engine, options, mtd_attack);
    for (std::size_t threads : kThreadCounts) {
      options.num_threads = threads;
      const AttackResult cpa = run_attack(engine, options, cpa_attack);
      ASSERT_EQ(cpa.score.size(), cpa_ref.score.size());
      for (std::size_t g = 0; g < cpa_ref.score.size(); ++g) {
        // EXPECT_EQ on doubles is exact: bit-identical, not just <= 1e-12.
        EXPECT_EQ(cpa.score[g], cpa_ref.score[g])
            << to_string(style) << " threads " << threads << " guess "
            << g;
      }
      EXPECT_EQ(cpa.best_guess, cpa_ref.best_guess);
      EXPECT_EQ(cpa.margin, cpa_ref.margin);
      const AttackResult dom = run_attack(engine, options, dom_attack);
      for (std::size_t g = 0; g < dom_ref.score.size(); ++g) {
        EXPECT_EQ(dom.score[g], dom_ref.score[g])
            << to_string(style) << " threads " << threads << " guess "
            << g;
      }
      const MtdResult mtd = run_attack(engine, options, mtd_attack);
      EXPECT_EQ(mtd.disclosed, mtd_ref.disclosed);
      EXPECT_EQ(mtd.mtd, mtd_ref.mtd);
      ASSERT_EQ(mtd.rank_history.size(), mtd_ref.rank_history.size());
      for (std::size_t i = 0; i < mtd_ref.rank_history.size(); ++i) {
        EXPECT_EQ(mtd.rank_history[i], mtd_ref.rank_history[i])
            << to_string(style) << " threads " << threads << " checkpoint "
            << i;
      }
    }
  }
}

TEST(EngineDeterminismTest, MultiCpaCampaignBitIdenticalAcrossThreadsAllStyles) {
  // Time-resolved campaigns cover the baseline and WDDL styles too.
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  for (LogicStyle style :
       {LogicStyle::kSablGenuine, LogicStyle::kStaticCmos,
        LogicStyle::kWddlMismatched}) {
    TraceEngine engine(present_spec(), style, kTech);
    ASSERT_GT(engine.target().num_levels(), 0u) << to_string(style);
    CampaignOptions options = ragged_options();
    const MultiCpaDistinguisher attack(engine.spec(), selector,
                                       engine.target().num_levels());
    const MultiAttackResult reference = run_attack(engine, options, attack);
    for (std::size_t threads : kThreadCounts) {
      options.num_threads = threads;
      const MultiAttackResult result = run_attack(engine, options, attack);
      ASSERT_EQ(result.combined.score.size(),
                reference.combined.score.size());
      for (std::size_t g = 0; g < reference.combined.score.size(); ++g) {
        EXPECT_EQ(result.combined.score[g], reference.combined.score[g])
            << to_string(style) << " threads " << threads << " guess "
            << g;
      }
      EXPECT_EQ(result.best_sample, reference.best_sample);
      EXPECT_EQ(result.combined.best_guess, reference.combined.best_guess);
    }
  }
}

// RoundTarget::clone() must be state-free: after disturbing the original,
// a clone's traces equal a freshly constructed target's, bit for bit. The
// styles cover static CMOS (the only one with transition history), SABL
// with genuine and fully connected networks, and mismatched WDDL (whose
// rail imbalance is drawn once, at construction).
TEST(CloneTest, ClonedRoundTargetMatchesFreshTarget) {
  for (LogicStyle style :
       {LogicStyle::kStaticCmos, LogicStyle::kSablGenuine,
        LogicStyle::kSablFullyConnected, LogicStyle::kWddlMismatched}) {
    SCOPED_TRACE(to_string(style));
    const RoundSpec round = present_round(3, style);
    const std::vector<std::uint8_t> key = round.pack_subkeys({0x2, 0xB, 0x5});
    RoundTarget original(round, kTech);
    Rng warmup(0x77);
    std::vector<std::uint8_t> state(round.state_bytes(), 0);
    for (int i = 0; i < 10; ++i) {
      for (std::size_t j = 0; j < round.num_sboxes(); ++j) {
        round.set_sub_word(state.data(), j, warmup.below(16));
      }
      original.trace(state.data(), key.data(), 0.0, warmup);
    }
    RoundTarget cloned = original.clone();
    RoundTarget fresh(round, kTech);
    Rng rng_a(0x88);
    Rng rng_b(0x88);
    Rng pts(0x99);
    for (int i = 0; i < 64; ++i) {
      for (std::size_t j = 0; j < round.num_sboxes(); ++j) {
        round.set_sub_word(state.data(), j, pts.below(16));
      }
      EXPECT_EQ(cloned.trace(state.data(), key.data(), 1e-16, rng_a),
                fresh.trace(state.data(), key.data(), 1e-16, rng_b))
          << i;
    }
  }
}


// ---- reduction bits ---------------------------------------------------------

// FNV-1a 64 over every result bit of one CPA + DoM + MTD + multi-CPA +
// second-order campaign, and over the bytes of its complete checkpoint.
// The constants below were computed before the shard states were reduced
// online, as shards finish, and are never edited: any change to the
// reduction's pairing, order or hand-off moves them.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void attack(const AttackResult& r) {
    u64(r.score.size());
    for (double x : r.score) f64(x);
    u64(r.best_guess);
    f64(r.margin);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// n 64-trace shards, the last one ragged (37 traces).
CampaignOptions pinned_options(std::size_t shards, std::size_t threads) {
  CampaignOptions options;
  options.num_traces = 64 * (shards - 1) + 37;
  options.key = {0xB};
  options.noise_sigma = 2e-16;
  options.seed = 0x5EED;
  options.shard_size = 64;
  options.num_threads = threads;
  return options;
}

struct PinnedSet {
  CpaDistinguisher cpa;
  DomDistinguisher dom;
  MtdDistinguisher mtd;
  MultiCpaDistinguisher multi;
  SecondOrderCpaDistinguisher second;

  PinnedSet(TraceEngine& engine, const CampaignOptions& options)
      : cpa(engine.spec(), AttackSelector{.model = PowerModel::kHammingWeight}),
        dom(engine.spec(), AttackSelector{.model = PowerModel::kHammingWeight,
                                          .bit = 1}),
        mtd(engine.spec(), AttackSelector{.model = PowerModel::kHammingWeight},
            options.key[0], default_checkpoints(options.num_traces),
            options.num_traces),
        multi(engine.spec(),
              AttackSelector{.model = PowerModel::kHammingWeight},
              engine.target().num_levels()),
        second(engine.spec(),
               AttackSelector{.model = PowerModel::kHammingWeight}) {}

  std::vector<Distinguisher*> all() {
    return {&cpa, &dom, &mtd, &multi, &second};
  }
  std::vector<Distinguisher*> scalar() { return {&cpa, &dom, &mtd}; }
  std::vector<Distinguisher*> sampled() { return {&multi, &second}; }

  std::uint64_t hash() const {
    Fnv1a h;
    h.attack(cpa.result());
    h.attack(dom.result());
    const MtdResult& m = mtd.result();
    h.u64(m.disclosed);
    h.u64(m.mtd);
    h.u64(m.rank_history.size());
    for (const auto& [traces, rank] : m.rank_history) {
      h.u64(traces);
      h.u64(rank);
    }
    h.attack(multi.result().combined);
    h.u64(multi.result().best_sample);
    h.attack(second.result().combined);
    h.u64(second.result().best_pair_first);
    h.u64(second.result().best_pair_second);
    return h.value();
  }
};

std::uint64_t file_hash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  const std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>()};
  Fnv1a h;
  h.bytes(bytes.data(), bytes.size());
  return h.value();
}

std::string pinned_path(const std::string& name, std::size_t shards,
                        std::size_t threads) {
  return testing::TempDir() + "reduction_bits_" + name + "_" +
         std::to_string(shards) + "_" + std::to_string(threads);
}

struct PinnedBits {
  std::size_t shards;
  std::uint64_t results;
  std::uint64_t checkpoint;
};

constexpr PinnedBits kPinnedBits[] = {
    {1, 0x1518a01190986271ULL, 0x098183ba9dd23b71ULL},
    {2, 0x6a335b54133b004aULL, 0x2c3a69ed474b9454ULL},
    {3, 0x542b8f76d726a6f4ULL, 0x57a3170a318ceaa2ULL},
    {5, 0x761c5de40d3f13c8ULL, 0x22ffcbd4bc3c176cULL},
    {7, 0x84369894efaa35d3ULL, 0xae3b122e5ae4278dULL},
    {33, 0xa01ebe4a81d1b8f0ULL, 0x294619bd34c4a33bULL},
};

// Every way a campaign reaches its reduction — live, replayed from a
// corpus, resumed from a mid-run checkpoint, merged from two range
// partials — at 1 and 4 threads must produce the pinned bits.
TEST(EngineDeterminismTest, ReductionBitsArePinned) {
  for (const PinnedBits& pin : kPinnedBits) {
    const std::size_t n = pin.shards;
    const std::size_t mid = n / 2;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("shards " + std::to_string(n) + ", threads " +
                   std::to_string(threads));
      const CampaignOptions options = pinned_options(n, threads);
      TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
      ASSERT_EQ(engine.campaign_manifest(options).num_shards, n);

      PinnedSet live(engine, options);
      engine.run_distinguishers(options, live.all());
      EXPECT_EQ(live.hash(), pin.results)
          << "live 0x" << std::hex << live.hash();

      const std::string scalar_corpus = pinned_path("scalar", n, threads);
      const std::string sampled_corpus = pinned_path("sampled", n, threads);
      engine.record(options, TraceDataKind::kScalar, scalar_corpus);
      engine.record(options, TraceDataKind::kSampled, sampled_corpus);
      PinnedSet replayed(engine, options);
      engine.replay(CorpusReader(scalar_corpus), replayed.scalar(), {},
                    threads);
      engine.replay(CorpusReader(sampled_corpus), replayed.sampled(), {},
                    threads);
      EXPECT_EQ(replayed.hash(), pin.results)
          << "replayed 0x" << std::hex << replayed.hash();

      const std::string checkpoint = pinned_path("ckpt", n, threads);
      CampaignPersistence first;
      first.checkpoint_path = checkpoint;
      first.checkpoint_every_shards = 1;
      first.shard_end = mid;
      PinnedSet interrupted(engine, options);
      EXPECT_FALSE(
          engine.run_distinguishers(options, interrupted.all(), first));
      CampaignPersistence rest;
      rest.resume_path = checkpoint;
      rest.checkpoint_path = checkpoint;
      rest.checkpoint_every_shards = 2;
      PinnedSet resumed(engine, options);
      EXPECT_TRUE(engine.run_distinguishers(options, resumed.all(), rest));
      EXPECT_EQ(resumed.hash(), pin.results)
          << "resumed 0x" << std::hex << resumed.hash();
      EXPECT_EQ(file_hash(checkpoint), pin.checkpoint)
          << "checkpoint 0x" << std::hex << file_hash(checkpoint);

      const std::string left = pinned_path("left", n, threads);
      const std::string right = pinned_path("right", n, threads);
      CampaignPersistence head;
      head.checkpoint_path = left;
      head.shard_end = mid;
      CampaignPersistence tail;
      tail.checkpoint_path = right;
      tail.shard_begin = mid;
      PinnedSet ignored(engine, options);
      engine.run_distinguishers(options, ignored.all(), head);
      engine.run_distinguishers(options, ignored.all(), tail);
      PinnedSet merged(engine, options);
      engine.merge_partials(options, merged.all(), {left, right});
      EXPECT_EQ(merged.hash(), pin.results)
          << "merged 0x" << std::hex << merged.hash();
    }
  }
}


// ---- feed bits --------------------------------------------------------------

// FNV-1a 64 over every result bit of an all-subkeys CPA + DoM + MTD list
// (one set per round instance, as `attack --all-subkeys` builds it), over
// the bytes of its complete checkpoint, and over the results of a
// time-resolved CPA on instance 0 fed beside the scalar attacks. The
// constants below were computed while the feed still binned each attacked
// instance in a pass of its own, and are never edited: any change to the
// per-instance histograms, the sub-plaintexts an accumulator reads or the
// blocks it is handed moves them.
struct FeedSet {
  std::vector<std::unique_ptr<CpaDistinguisher>> cpa;
  std::vector<std::unique_ptr<DomDistinguisher>> dom;
  std::vector<std::unique_ptr<MtdDistinguisher>> mtd;
  std::unique_ptr<MultiCpaDistinguisher> multi;
  std::vector<Distinguisher*> list;

  // With `sampled`, the time-resolved CPA joins the list right after
  // instance 0's scalar set, on the same instance.
  FeedSet(TraceEngine& engine, const CampaignOptions& options, bool sampled) {
    const RoundSpec& round = engine.round();
    for (std::size_t i = 0; i < round.num_sboxes(); ++i) {
      const AttackSelector selector{.sbox_index = i,
                                    .model = PowerModel::kHammingWeight};
      cpa.push_back(
          std::make_unique<CpaDistinguisher>(engine.spec(i), selector));
      dom.push_back(
          std::make_unique<DomDistinguisher>(engine.spec(i), selector));
      mtd.push_back(std::make_unique<MtdDistinguisher>(
          engine.spec(i), selector, round.sub_word(options.key.data(), i),
          default_checkpoints(options.num_traces), options.num_traces));
      list.insert(list.end(), {cpa.back().get(), dom.back().get(),
                               mtd.back().get()});
      if (sampled && i == 0) {
        multi = std::make_unique<MultiCpaDistinguisher>(
            engine.spec(0), selector, engine.target().num_levels());
        list.push_back(multi.get());
      }
    }
  }

  std::uint64_t scalar_hash() const {
    Fnv1a h;
    for (std::size_t i = 0; i < cpa.size(); ++i) {
      h.attack(cpa[i]->result());
      h.attack(dom[i]->result());
      const MtdResult& m = mtd[i]->result();
      h.u64(m.disclosed);
      h.u64(m.mtd);
      h.u64(m.rank_history.size());
      for (const auto& [traces, rank] : m.rank_history) {
        h.u64(traces);
        h.u64(rank);
      }
    }
    return h.value();
  }
  std::uint64_t multi_hash() const {
    Fnv1a h;
    h.attack(multi->result().combined);
    h.u64(multi->result().best_sample);
    return h.value();
  }
};

// Forwards every call of the Distinguisher and ShardAccumulator
// interfaces to the real object and nothing else, as a timing or logging
// wrapper outside the library would: a feed must not depend on any
// method such a wrapper does not know about.
class ForwardingAccumulator final : public ShardAccumulator {
 public:
  explicit ForwardingAccumulator(std::unique_ptr<ShardAccumulator> inner)
      : inner_(std::move(inner)) {}
  void accumulate(const ShardBlock& block) override {
    inner_->accumulate(block);
  }
  void merge(ShardAccumulator& other) override {
    inner_->merge(*dynamic_cast<ForwardingAccumulator&>(other).inner_);
  }
  void save(ByteWriter& writer) const override { inner_->save(writer); }
  void load(ByteReader& reader) override { inner_->load(reader); }
  ShardAccumulator& inner() { return *inner_; }

 private:
  std::unique_ptr<ShardAccumulator> inner_;
};

class ForwardingDistinguisher final : public Distinguisher {
 public:
  explicit ForwardingDistinguisher(Distinguisher& inner) : inner_(inner) {}
  TraceDataKind data_kind() const override { return inner_.data_kind(); }
  std::size_t sbox_index() const override { return inner_.sbox_index(); }
  bool ordered() const override { return inner_.ordered(); }
  void validate(const RoundSpec& round) const override {
    inner_.validate(round);
  }
  std::unique_ptr<ShardAccumulator> make_shard_accumulator() const override {
    return std::make_unique<ForwardingAccumulator>(
        inner_.make_shard_accumulator());
  }
  void finalize(ShardAccumulator& root) override {
    inner_.finalize(dynamic_cast<ForwardingAccumulator&>(root).inner());
  }

 private:
  Distinguisher& inner_;
};

struct ForwardedList {
  std::vector<std::unique_ptr<ForwardingDistinguisher>> owners;
  std::vector<Distinguisher*> list;
  explicit ForwardedList(const std::vector<Distinguisher*>& inner) {
    for (Distinguisher* d : inner) {
      owners.push_back(std::make_unique<ForwardingDistinguisher>(*d));
      list.push_back(owners.back().get());
    }
  }
};

struct FeedRound {
  const char* name;
  RoundSpec round;
  std::uint64_t results;
  std::uint64_t checkpoint;
  std::uint64_t multi;
};

// 2860 traces in 512-trace shards: five full shards and a ragged one. The
// default MTD ladder cuts shards 0, 1, 2 and 4, leaves shard 3 whole and
// ends exactly at the last shard's end.
CampaignOptions feed_options(const std::vector<std::uint8_t>& key,
                             std::size_t threads) {
  CampaignOptions options;
  options.num_traces = 2860;
  options.key = key;
  options.noise_sigma = 2e-16;
  options.seed = 0xFEED5;
  options.shard_size = 512;
  options.num_threads = threads;
  return options;
}

// The three field layouts a feed reads: sixteen 4-bit PRESENT fields in
// one 8-byte window, sixteen 8-bit AES fields in two, and one 6-bit DES
// field in a 1-byte state, narrower than any window. Subkeys are
// round_subkeys'.
const FeedRound kFeedRounds[] = {
    {"present16", present_round(16, LogicStyle::kStaticCmos),
     0x0044f9281d80d961ULL, 0xadc7966b57e5901eULL, 0x04bc8563f82714c3ULL},
    {"aes16", aes_subbytes_round(16, LogicStyle::kStaticCmos),
     0x1b5d79f72afc9365ULL, 0x39a1255782392644ULL, 0xdfe58ccdc81437fcULL},
    {"des1", single_sbox_round(des1_spec(), LogicStyle::kStaticCmos),
     0xd981f997a7126ba7ULL, 0x0af5aa34c853c31fULL, 0x15be4d81c32eb705ULL},
};

// Live and replayed all-subkeys campaigns at 1 and 4 threads, with and
// without a time-resolved CPA on a scalar-attacked instance, plain and
// through forwarding wrappers, must produce the pinned bits.
TEST(EngineDeterminismTest, FeedBitsArePinned) {
  for (const FeedRound& pin : kFeedRounds) {
    TraceEngine engine(pin.round, kTech);
    const std::vector<std::uint8_t> key =
        pin.round.pack_subkeys(round_subkeys(pin.round.num_sboxes()));
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(pin.name) + ", threads " +
                   std::to_string(threads));
      const CampaignOptions options = feed_options(key, threads);
      ASSERT_EQ(engine.campaign_manifest(options).num_shards, 6u);

      const std::string checkpoint =
          pinned_path(std::string("feed_ckpt_") + pin.name, 6, threads);
      CampaignPersistence persist;
      persist.checkpoint_path = checkpoint;
      FeedSet live(engine, options, /*sampled=*/false);
      EXPECT_TRUE(engine.run_distinguishers(options, live.list, persist));
      EXPECT_EQ(live.scalar_hash(), pin.results)
          << "live 0x" << std::hex << live.scalar_hash();
      EXPECT_EQ(file_hash(checkpoint), pin.checkpoint)
          << "checkpoint 0x" << std::hex << file_hash(checkpoint);

      const std::string corpus =
          pinned_path(std::string("feed_corpus_") + pin.name, 6, threads);
      engine.record(options, TraceDataKind::kScalar, corpus);
      FeedSet replayed(engine, options, /*sampled=*/false);
      engine.replay(CorpusReader(corpus), replayed.list, {}, threads);
      EXPECT_EQ(replayed.scalar_hash(), pin.results)
          << "replayed 0x" << std::hex << replayed.scalar_hash();

      FeedSet mixed(engine, options, /*sampled=*/true);
      engine.run_distinguishers(options, mixed.list);
      EXPECT_EQ(mixed.scalar_hash(), pin.results)
          << "mixed 0x" << std::hex << mixed.scalar_hash();
      EXPECT_EQ(mixed.multi_hash(), pin.multi)
          << "mixed multi 0x" << std::hex << mixed.multi_hash();

      FeedSet forwarded(engine, options, /*sampled=*/true);
      engine.run_distinguishers(options, ForwardedList(forwarded.list).list);
      EXPECT_EQ(forwarded.scalar_hash(), pin.results)
          << "forwarded 0x" << std::hex << forwarded.scalar_hash();
      EXPECT_EQ(forwarded.multi_hash(), pin.multi)
          << "forwarded multi 0x" << std::hex << forwarded.multi_hash();

      FeedSet forwarded_replay(engine, options, /*sampled=*/false);
      engine.replay(CorpusReader(corpus),
                    ForwardedList(forwarded_replay.list).list, {}, threads);
      EXPECT_EQ(forwarded_replay.scalar_hash(), pin.results)
          << "forwarded replay 0x" << std::hex
          << forwarded_replay.scalar_hash();
    }
  }
}

}  // namespace
}  // namespace sable
