// Tests for the crypto substrate and the DPA attack framework, ending with
// the headline security experiment: DPA breaks static CMOS and the genuine-
// DPDN implementation, and fails against the fully connected one.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "crypto/round_target.hpp"
#include "crypto/sboxes.hpp"
#include "dpa/attack.hpp"
#include "dpa/mtd.hpp"
#include "dpa/streaming.hpp"
#include "power/stats.hpp"
#include "reference_attacks.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sable {
namespace {

const Technology kTech = Technology::generic_180nm();

TEST(SboxTest, PresentKnownValues) {
  // First and last entries of the standard PRESENT table.
  EXPECT_EQ(present_sbox(0x0), 0xC);
  EXPECT_EQ(present_sbox(0xF), 0x2);
  EXPECT_THROW(present_sbox(16), InvalidArgument);
}

TEST(SboxTest, PresentIsABijection) {
  std::array<bool, 16> seen{};
  for (std::uint8_t x = 0; x < 16; ++x) seen[present_sbox(x)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(SboxTest, AesKnownValues) {
  EXPECT_EQ(aes_sbox(0x00), 0x63);
  EXPECT_EQ(aes_sbox(0x52), 0x00);  // S(0x52) = 0 (inverse of S-box 0)
  EXPECT_EQ(aes_sbox(0xFF), 0x16);
}

TEST(SboxTest, DesS1KnownValues) {
  // Classic test vectors: input 0b000000 -> row 0, col 0 -> 14.
  EXPECT_EQ(des_sbox1(0b000000), 14);
  // Input 0b111111 -> row 3, col 15 -> 13.
  EXPECT_EQ(des_sbox1(0b111111), 13);
}

TEST(SboxTest, OutputBitTables) {
  const SboxSpec spec = present_spec();
  for (std::size_t bit = 0; bit < 4; ++bit) {
    const TruthTable t = sbox_output_bit(spec, bit);
    for (std::size_t x = 0; x < 16; ++x) {
      EXPECT_EQ(t.get(x), ((present_sbox(static_cast<std::uint8_t>(x)) >> bit) & 1u) != 0);
    }
  }
  EXPECT_THROW(sbox_output_bit(spec, 9), InvalidArgument);
}

TEST(TargetTest, CircuitMatchesReferenceSbox) {
  for (LogicStyle style :
       {LogicStyle::kStaticCmos, LogicStyle::kSablGenuine,
        LogicStyle::kSablFullyConnected}) {
    RoundTarget target(single_sbox_round(present_spec(), style), kTech);
    const std::uint8_t key0 = 0x0;
    const std::uint8_t keyA = 0xA;
    for (std::uint8_t pt = 0; pt < 16; ++pt) {
      // The circuit computes S(pt ^ key); check against the table for a
      // couple of keys via the functional output path.
      EXPECT_EQ(target.reference(0, &pt, &key0), present_sbox(pt));
      EXPECT_EQ(target.reference(0, &pt, &keyA),
                present_sbox(static_cast<std::uint8_t>(pt ^ 0xA)));
    }
  }
}

TEST(StatsTest, PearsonBasics) {
  const std::vector<double> x = {1, 2, 3, 4};
  const std::vector<double> y = {2, 4, 6, 8};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  const std::vector<double> yn = {8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, yn), -1.0, 1e-12);
  const std::vector<double> c = {5, 5, 5, 5};
  EXPECT_EQ(pearson(x, c), 0.0);
}

TEST(StatsTest, SpreadMetrics) {
  const SpreadMetrics m = spread_metrics({1.0, 2.0, 3.0});
  EXPECT_EQ(m.min, 1.0);
  EXPECT_EQ(m.max, 3.0);
  EXPECT_NEAR(m.mean, 2.0, 1e-12);
  EXPECT_NEAR(m.ned, 2.0 / 3.0, 1e-12);
}

TraceSet collect_traces(RoundTarget& target, std::uint8_t key,
                        std::size_t count, double noise, Rng& rng) {
  TraceSet traces;
  for (std::size_t i = 0; i < count; ++i) {
    const auto pt = static_cast<std::uint8_t>(rng.below(16));
    traces.add(pt, target.trace(&pt, &key, noise, rng));
  }
  return traces;
}

TEST(DpaTest, CpaRecoversKeyFromCmosTraces) {
  Rng rng(42);
  const std::uint8_t key = 0xB;
  RoundTarget target(
      single_sbox_round(present_spec(), LogicStyle::kStaticCmos), kTech);
  const TraceSet traces = collect_traces(target, key, 2000, 2e-16, rng);
  const AttackResult result =
      cpa_attack(traces, present_spec(), PowerModel::kHammingWeight);
  EXPECT_EQ(result.best_guess, key);
  EXPECT_EQ(result.rank_of(key), 0u);
}

TEST(DpaTest, DomRecoversKeyFromGenuineSablTraces) {
  Rng rng(43);
  const std::uint8_t key = 0x6;
  RoundTarget target(
      single_sbox_round(present_spec(), LogicStyle::kSablGenuine), kTech);
  const TraceSet traces = collect_traces(target, key, 4000, 1e-16, rng);
  const AttackResult result =
      cpa_attack(traces, present_spec(), PowerModel::kHammingWeight);
  // The genuine network leaks through floating internal nodes; the key must
  // be recovered (possibly needing the bitwise model: check both).
  const AttackResult bit0 =
      cpa_attack(traces, present_spec(), PowerModel::kSboxOutputBit, 0);
  EXPECT_TRUE(result.rank_of(key) == 0 || bit0.rank_of(key) == 0)
      << "HW rank " << result.rank_of(key) << " bit rank "
      << bit0.rank_of(key);
}

TEST(DpaTest, FullyConnectedSablResistsAttack) {
  Rng rng(44);
  const std::uint8_t key = 0x3;
  RoundTarget target(
      single_sbox_round(present_spec(), LogicStyle::kSablFullyConnected),
      kTech);
  const TraceSet traces = collect_traces(target, key, 4000, 1e-16, rng);
  const AttackResult hw =
      cpa_attack(traces, present_spec(), PowerModel::kHammingWeight);
  // Constant-power traces: correlations are pure noise, so the correct key
  // should win no more often than chance. Require that it is not a clear
  // winner (score indistinguishable from the field).
  const double top = hw.score[hw.best_guess];
  EXPECT_LT(top, 0.1) << "correlation should be noise-level";
}

TEST(DpaTest, DomAttackRecoversKeyOverAllOutputBits) {
  // Single-bit difference-of-means is subject to ghost peaks: on this
  // static-CMOS S-box a ghost key outranks the correct one on every
  // output bit, even at 600k traces. A real attack therefore combines the
  // bits; the summed per-bit peaks rank the correct key first.
  Rng rng(45);
  const std::uint8_t key = 0xD;
  RoundTarget target(
      single_sbox_round(present_spec(), LogicStyle::kStaticCmos), kTech);
  const TraceSet traces = collect_traces(target, key, 6000, 1e-16, rng);
  std::vector<double> summed(16, 0.0);
  for (std::size_t bit = 0; bit < 4; ++bit) {
    StreamingDom dom(present_spec(), bit);
    dom.add_block(traces.plaintexts.data(), traces.samples.data(),
                  traces.size());
    const AttackResult result = dom.result();
    for (std::size_t g = 0; g < summed.size(); ++g) {
      summed[g] += result.score[g];
    }
  }
  EXPECT_EQ(std::max_element(summed.begin(), summed.end()) - summed.begin(),
            key);
}

// A hand-built trace set short on either side would make the one-shot
// attack read past a buffer; each mismatch throws instead.
TEST(DpaTest, OneShotAttacksRejectMismatchedTraceSets) {
  TraceSet scalar;
  for (std::uint8_t pt = 0; pt < 8; ++pt) scalar.add(pt, 1e-13 + pt * 1e-15);
  TraceSet short_pts = scalar;
  short_pts.plaintexts.pop_back();
  EXPECT_THROW(cpa_attack(short_pts, present_spec(),
                          PowerModel::kHammingWeight),
               InvalidArgument);
  TraceSet long_pts = scalar;
  long_pts.plaintexts.push_back(0);
  EXPECT_THROW(cpa_attack(long_pts, present_spec(),
                          PowerModel::kHammingWeight),
               InvalidArgument);

  // The well-formed set still attacks.
  EXPECT_EQ(cpa_attack(scalar, present_spec(), PowerModel::kHammingWeight)
                .score.size(),
            16u);
}

TEST(MtdTest, DisclosureOrdering) {
  Rng rng(46);
  const std::uint8_t key = 0x9;
  RoundTarget cmos(
      single_sbox_round(present_spec(), LogicStyle::kStaticCmos), kTech);
  RoundTarget fc(
      single_sbox_round(present_spec(), LogicStyle::kSablFullyConnected),
      kTech);
  const std::size_t n = 3000;
  const TraceSet traces_cmos = collect_traces(cmos, key, n, 2e-16, rng);
  const TraceSet traces_fc = collect_traces(fc, key, n, 2e-16, rng);
  const auto checkpoints = default_checkpoints(n);
  const MtdResult mtd_cmos = reference_mtd(
      traces_cmos, present_spec(), PowerModel::kHammingWeight, key,
      checkpoints);
  const MtdResult mtd_fc = reference_mtd(
      traces_fc, present_spec(), PowerModel::kHammingWeight, key, checkpoints);
  EXPECT_TRUE(mtd_cmos.disclosed);
  // The FC implementation either never discloses or takes far longer.
  if (mtd_fc.disclosed) {
    EXPECT_GT(mtd_fc.mtd, mtd_cmos.mtd * 4);
  }
}

TEST(MtdTest, CheckpointLadder) {
  const auto pts = default_checkpoints(1000);
  ASSERT_FALSE(pts.empty());
  EXPECT_EQ(pts.back(), 1000u);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GT(pts[i], pts[i - 1]);
  }
}

}  // namespace
}  // namespace sable
