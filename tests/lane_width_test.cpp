// Lane-width equivalence suite: the batch kernels are generic over the
// lane word (64-bit, portable 128-bit pair, AVX2/AVX-512 vectors when
// compiled in), and the contract is that the word width is a pure
// throughput knob — campaigns generate BIT-IDENTICAL traces and attack
// statistics at every supported width, including ragged tail batches and
// the static-CMOS logical 64-lane history. Also covers the central
// lane_mask() helper (including its abort on out-of-range counts) and the
// engine's persistent cross-campaign worker pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "crypto/round_target.hpp"
#include "crypto/target.hpp"
#include "dpa/attack.hpp"
#include "dpa/mtd.hpp"
#include "engine/trace_engine.hpp"
#include "power/trace.hpp"
#include "switchsim/cycle_sim.hpp"
#include "util/cpu_dispatch.hpp"
#include "util/lane_word.hpp"
#include "util/rng.hpp"

namespace sable {
namespace {

const Technology kTech = Technology::generic_180nm();

std::vector<LogicStyle> all_styles() {
  return {LogicStyle::kStaticCmos,         LogicStyle::kSablGenuine,
          LogicStyle::kSablFullyConnected, LogicStyle::kSablEnhanced,
          LogicStyle::kWddlBalanced,       LogicStyle::kWddlMismatched};
}

// ---- lane word primitives -------------------------------------------------

// Whether the running CPU can execute kernels of lane word W. The wide
// words always exist in a runtime-dispatched binary; executing their
// kernels needs the matching ISA, so wide-word tests skip on older CPUs
// (the CI runners have AVX2 but not AVX-512).
template <typename W>
bool cpu_can_run() {
  constexpr std::size_t kLanes = LaneTraits<W>::kLanes;
  if (kLanes <= 128) return true;
  if (kLanes == 256) return cpu_features().avx2;
  return cpu_features().avx512f;
}

template <typename W>
struct LaneWordTest : ::testing::Test {};

using LaneWordTypes = ::testing::Types<std::uint64_t, Word128
#if SABLE_HAVE_WORD256
                                       ,
                                       Word256
#endif
#if SABLE_HAVE_WORD512
                                       ,
                                       Word512
#endif
                                       >;
TYPED_TEST_SUITE(LaneWordTest, LaneWordTypes);

// This TU is compiled for the base architecture, so it may only touch wide
// words through the memcpy-based chunk helpers and const-ref/scalar entry
// points — passing or returning a wide word by value across the
// portable/ISA boundary is the one thing the multi-ISA build must never do
// (see util/lane_word.hpp). The intrinsic bitwise operators are exercised
// end to end by the width-equivalence campaigns below: a broken AND/OR/XOR
// cannot produce traces bit-identical to the 64-lane reference.
TYPED_TEST(LaneWordTest, ChunkRoundTripAndLaneHelpers) {
  using W = TypeParam;
  using T = LaneTraits<W>;
  static_assert(T::kLanes == 64 * T::kChunks);
  if (!cpu_can_run<W>()) GTEST_SKIP() << "CPU lacks the ISA for this width";
  Rng rng(0x1A9E);
  for (int round = 0; round < 16; ++round) {
    std::uint64_t a[T::kChunks], out[T::kChunks];
    bool expect_any = false;
    for (std::size_t j = 0; j < T::kChunks; ++j) {
      a[j] = rng.next();
      expect_any |= a[j] != 0;
    }
    const W wa = lane_from_chunks<W>(a);
    lane_chunks(wa, out);
    for (std::size_t j = 0; j < T::kChunks; ++j) EXPECT_EQ(out[j], a[j]);
    EXPECT_EQ(lane_any(wa), expect_any);
    double energy[T::kLanes] = {};
    lane_fill_selected(wa, 1.0, energy);
    for (std::size_t lane = 0; lane < T::kLanes; ++lane) {
      EXPECT_EQ(energy[lane],
                static_cast<double>((a[lane / 64] >> (lane % 64)) & 1u))
          << "lane " << lane;
    }
  }
  const std::uint64_t zeros[T::kChunks] = {};
  EXPECT_FALSE(lane_any(lane_from_chunks<W>(zeros)));
  EXPECT_TRUE(lane_any(lane_mask<W>(1)));
  EXPECT_TRUE(lane_any(lane_mask<W>(T::kLanes)));
}

TYPED_TEST(LaneWordTest, LaneMaskSetsExactlyTheFirstCountLanes) {
  using W = TypeParam;
  using T = LaneTraits<W>;
  for (std::size_t count : {std::size_t{1}, std::size_t{2}, std::size_t{9},
                            std::size_t{63}, std::size_t{64},
                            std::min<std::size_t>(T::kLanes, 65),
                            std::min<std::size_t>(T::kLanes, 129),
                            T::kLanes - 1, T::kLanes}) {
    std::uint64_t chunks[T::kChunks];
    lane_chunks(lane_mask<W>(count), chunks);
    std::size_t total = 0;
    for (std::size_t j = 0; j < T::kChunks; ++j) {
      total += static_cast<std::size_t>(std::popcount(chunks[j]));
      // Set lanes must be the prefix: chunk j is all-ones below the count
      // boundary, a low-bits mask at it, zero above.
      const std::size_t low = 64 * j;
      const std::uint64_t expected =
          count <= low ? 0
          : count >= low + 64 ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << (count - low)) - 1;
      EXPECT_EQ(chunks[j], expected) << "count " << count << " chunk " << j;
    }
    EXPECT_EQ(total, count);
  }
}

TYPED_TEST(LaneWordTest, PackLaneWordsTransposesEveryLane) {
  using W = TypeParam;
  using T = LaneTraits<W>;
  if (!cpu_can_run<W>()) GTEST_SKIP() << "CPU lacks the ISA for this width";
  constexpr std::size_t kVars = 5;
  Rng rng(0x9ACC);
  for (std::size_t count : {T::kLanes, T::kLanes - 7, std::size_t{1}}) {
    std::vector<std::uint64_t> assignments(count);
    for (auto& a : assignments) a = rng.below(std::uint64_t{1} << kVars);
    std::vector<W> words(kVars);
    pack_lane_words(assignments.data(), count, words);
    for (std::size_t v = 0; v < kVars; ++v) {
      std::uint64_t chunks[T::kChunks];
      lane_chunks(words[v], chunks);
      for (std::size_t lane = 0; lane < T::kLanes; ++lane) {
        const std::uint64_t bit = (chunks[lane / 64] >> (lane % 64)) & 1u;
        const std::uint64_t expected =
            lane < count ? (assignments[lane] >> v) & 1u : 0u;
        EXPECT_EQ(bit, expected) << "var " << v << " lane " << lane;
      }
    }
  }
}

// lane_mask is the single source of tail-batch masks; a count outside
// [1, kLanes] means an upstream kernel mis-sliced a batch, which must
// abort rather than silently simulate phantom traces.
TEST(LaneMaskDeathTest, AbortsOnOutOfRangeCounts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(lane_mask<std::uint64_t>(0), "lane_mask");
  EXPECT_DEATH(lane_mask<std::uint64_t>(65), "lane_mask");
  EXPECT_DEATH(lane_mask<Word128>(129), "lane_mask");
}

// ---- target-level width equivalence ---------------------------------------

// Runs `count` traces through a width-W variant of `base` and returns the
// samples. Noise exercised through a deterministic Rng so widths must also
// consume the stream identically.
template <typename W>
std::vector<double> trace_with_width(const RoundTarget& base,
                                     const std::vector<std::uint8_t>& pts,
                                     std::size_t count,
                                     const std::vector<std::uint8_t>& key) {
  RoundTargetT<W> target = base.with_lane_width<W>();
  Rng noise(0xD1CE);
  std::vector<double> out(count);
  target.trace_batch(pts.data(), count, key.data(), 1e-16, noise, out.data());
  return out;
}

TEST(LaneWidthTest, TraceBatchBitIdenticalAcrossWidthsAndRaggedTails) {
  // 777 leaves a partial tail batch at every width (777 = 12*64 + 9),
  // and N = 1 vs N = 3 covers both the single-S-box fast path and the
  // general multi-instance path.
  const std::size_t count = 777;
  for (LogicStyle style : all_styles()) {
    for (std::size_t n : {std::size_t{1}, std::size_t{3}}) {
      const RoundSpec round = present_round(n, style);
      RoundTarget base(round, kTech);
      std::vector<std::uint8_t> pts(count * round.state_bytes());
      Rng pt_rng(0x7A11);
      round.fill_random_states(pt_rng, count, pts.data());
      std::vector<std::uint8_t> key(round.state_bytes(), 0x6B);

      const std::vector<double> reference =
          trace_with_width<std::uint64_t>(base, pts, count, key);
      const std::vector<double> w128 =
          trace_with_width<Word128>(base, pts, count, key);
      for (std::size_t t = 0; t < count; ++t) {
        ASSERT_EQ(w128[t], reference[t])
            << to_string(style) << " n " << n << " trace " << t << " (128)";
      }
#if SABLE_HAVE_WORD256
      if (cpu_can_run<Word256>()) {
        const std::vector<double> w256 =
            trace_with_width<Word256>(base, pts, count, key);
        for (std::size_t t = 0; t < count; ++t) {
          ASSERT_EQ(w256[t], reference[t])
              << to_string(style) << " n " << n << " trace " << t << " (256)";
        }
      }
#endif
#if SABLE_HAVE_WORD512
      if (cpu_can_run<Word512>()) {
        const std::vector<double> w512 =
            trace_with_width<Word512>(base, pts, count, key);
        for (std::size_t t = 0; t < count; ++t) {
          ASSERT_EQ(w512[t], reference[t])
              << to_string(style) << " n " << n << " trace " << t << " (512)";
        }
      }
#endif
    }
  }
}

// ---- engine-level width equivalence ---------------------------------------

CampaignOptions sharded_options() {
  CampaignOptions options;
  options.num_traces = 1500;
  options.key = {0xB};
  options.noise_sigma = 2e-16;
  options.seed = 0x5EED;
  options.shard_size = 448;  // several shards, one partial tail
  return options;
}

TEST(LaneWidthTest, RunCampaignBitIdenticalAcrossLaneWidths) {
  for (LogicStyle style : all_styles()) {
    TraceEngine engine(present_spec(), style, kTech);
    CampaignOptions options = sharded_options();
    options.lane_width = 64;
    const TraceSet reference = engine.run(options);
    for (std::size_t width : runtime_lane_widths()) {
      options.lane_width = width;
      const TraceSet traces = engine.run(options);
      ASSERT_EQ(traces.size(), reference.size());
      for (std::size_t t = 0; t < reference.size(); ++t) {
        ASSERT_EQ(traces.plaintexts[t], reference.plaintexts[t])
            << to_string(style) << " width " << width << " trace " << t;
        ASSERT_EQ(traces.samples[t], reference.samples[t])
            << to_string(style) << " width " << width << " trace " << t;
      }
    }
  }
}

TEST(LaneWidthTest, AttackCampaignsBitIdenticalAcrossLaneWidths) {
  const AttackSelector cpa_sel{.model = PowerModel::kHammingWeight};
  for (LogicStyle style :
       {LogicStyle::kStaticCmos, LogicStyle::kSablEnhanced,
        LogicStyle::kWddlMismatched}) {
    TraceEngine engine(present_spec(), style, kTech);
    CampaignOptions options = sharded_options();
    options.lane_width = 64;
    const CpaDistinguisher cpa_attack(engine.spec(), cpa_sel);
    const DomDistinguisher dom_attack(engine.spec(), AttackSelector{.bit = 0});
    const MtdDistinguisher mtd_attack(
        engine.spec(), cpa_sel, engine.round().sub_word(options.key.data(), 0),
        default_checkpoints(options.num_traces), options.num_traces);
    const AttackResult cpa_ref = run_attack(engine, options, cpa_attack);
    const AttackResult dom_ref = run_attack(engine, options, dom_attack);
    const MtdResult mtd_ref = run_attack(engine, options, mtd_attack);
    for (std::size_t width : runtime_lane_widths()) {
      options.lane_width = width;
      const AttackResult cpa = run_attack(engine, options, cpa_attack);
      ASSERT_EQ(cpa.score.size(), cpa_ref.score.size());
      for (std::size_t g = 0; g < cpa_ref.score.size(); ++g) {
        // EXPECT_EQ on doubles is exact: bit-identical, not just <= 1e-12.
        EXPECT_EQ(cpa.score[g], cpa_ref.score[g])
            << to_string(style) << " width " << width << " guess " << g;
      }
      EXPECT_EQ(cpa.best_guess, cpa_ref.best_guess);
      EXPECT_EQ(cpa.margin, cpa_ref.margin);
      const AttackResult dom = run_attack(engine, options, dom_attack);
      for (std::size_t g = 0; g < dom_ref.score.size(); ++g) {
        EXPECT_EQ(dom.score[g], dom_ref.score[g])
            << to_string(style) << " width " << width << " guess " << g;
      }
      const MtdResult mtd = run_attack(engine, options, mtd_attack);
      EXPECT_EQ(mtd.disclosed, mtd_ref.disclosed);
      EXPECT_EQ(mtd.mtd, mtd_ref.mtd);
      ASSERT_EQ(mtd.rank_history.size(), mtd_ref.rank_history.size());
      for (std::size_t i = 0; i < mtd_ref.rank_history.size(); ++i) {
        EXPECT_EQ(mtd.rank_history[i], mtd_ref.rank_history[i])
            << to_string(style) << " width " << width << " checkpoint " << i;
      }
    }
  }
}

TEST(LaneWidthTest, MultiCpaCampaignBitIdenticalAcrossLaneWidthsAllStyles) {
  // Time-resolved campaigns now cover the baseline and WDDL styles too
  // (cycle_sampled on every batch sim), at every lane width.
  const AttackSelector selector{.model = PowerModel::kHammingWeight};
  for (LogicStyle style :
       {LogicStyle::kSablGenuine, LogicStyle::kStaticCmos,
        LogicStyle::kWddlMismatched}) {
    TraceEngine engine(present_spec(), style, kTech);
    ASSERT_GT(engine.target().num_levels(), 0u) << to_string(style);
    CampaignOptions options = sharded_options();
    options.lane_width = 64;
    const MultiCpaDistinguisher attack(engine.spec(), selector,
                                       engine.target().num_levels());
    const MultiAttackResult reference = run_attack(engine, options, attack);
    for (std::size_t width : runtime_lane_widths()) {
      options.lane_width = width;
      const MultiAttackResult result = run_attack(engine, options, attack);
      ASSERT_EQ(result.combined.score.size(),
                reference.combined.score.size());
      for (std::size_t g = 0; g < reference.combined.score.size(); ++g) {
        EXPECT_EQ(result.combined.score[g], reference.combined.score[g])
            << to_string(style) << " width " << width << " guess " << g;
      }
      EXPECT_EQ(result.best_sample, reference.best_sample);
      EXPECT_EQ(result.combined.best_guess, reference.combined.best_guess);
    }
  }
}

TEST(LaneWidthTest, SingleShardSmallerThanWideWordsIsHandled) {
  // 65 traces in one shard: every width wider than 64 sees a first word
  // with a ragged, sub-word tail — the lane_mask path end to end.
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  CampaignOptions options;
  options.num_traces = 65;
  options.key = {0x7};
  options.seed = 0x1AB5;
  options.lane_width = 64;
  const TraceSet reference = engine.run(options);
  for (std::size_t width : runtime_lane_widths()) {
    options.lane_width = width;
    const TraceSet traces = engine.run(options);
    ASSERT_EQ(traces.size(), reference.size());
    for (std::size_t t = 0; t < reference.size(); ++t) {
      ASSERT_EQ(traces.samples[t], reference.samples[t])
          << "width " << width << " trace " << t;
    }
  }
}

TEST(LaneWidthTest, UnsupportedLaneWidthThrows) {
  TraceEngine engine(present_spec(), LogicStyle::kStaticCmos, kTech);
  CampaignOptions options;
  options.num_traces = 128;
  options.key = {0x0};
  options.lane_width = 96;
  EXPECT_THROW(engine.run(options), InvalidArgument);
  options.lane_width = 1024;
  EXPECT_THROW(engine.run(options), InvalidArgument);
  // A width this binary carries but the CPU (or the active dispatch tier)
  // does not offer must throw, not crash: pin the tier to portable and ask
  // for an AVX2 word.
#if SABLE_HAVE_WORD256
  {
    ScopedDispatchTierCap cap(DispatchTier::kPortable);
    options.lane_width = 256;
    EXPECT_THROW(engine.run(options), InvalidArgument);
    EXPECT_EQ(campaign_lane_width(CampaignOptions{}), 128u);
  }
#endif
  for (std::size_t width : {std::size_t{256}, std::size_t{512}}) {
    const auto widths = runtime_lane_widths();
    if (std::find(widths.begin(), widths.end(), width) == widths.end()) {
      options.lane_width = width;
      EXPECT_THROW(engine.run(options), InvalidArgument);
    }
  }
  // Default (lane_width = 0) resolves to the widest the machine offers.
  EXPECT_EQ(campaign_lane_width(CampaignOptions{}), max_runtime_lane_width());
}

// ---- persistent worker pool -----------------------------------------------

// Workers are cloned once per engine and reused across campaigns; a stale
// worker (CMOS history from an earlier campaign) must never leak into the
// next campaign's traces.
TEST(LaneWidthTest, PersistentWorkerPoolReusesCleanWorkers) {
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

TEST(LaneWidthTest, SampledRowsSumToStreamedSamplesEveryStyle) {
  for (LogicStyle style : all_styles()) {
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
