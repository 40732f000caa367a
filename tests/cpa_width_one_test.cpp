// Scalar CPA is the width-1 case of time-resolved CPA, bit for bit.
//
// StreamingCpa is the one CPA accumulator. Built scalar, it is what
// CpaDistinguisher, cpa_attack and MTD run and it saves the CPA layout;
// built with time_resolved(), it is what MultiCpaDistinguisher runs and
// it saves the multi-CPA layout. At width 1 the two must score the same
// traces identically. These tests pin that on three levels:
//
//  * accumulators: the same ragged blocks (empty and one-trace blocks
//    included) and merges, on a 4-bit and an 8-bit S-box, under the
//    Hamming-weight and output-bit models, give scores whose bits match
//    after every block;
//  * one-shot attacks: cpa_attack equals a width-1 time-resolved
//    accumulator fed the same traces in one block;
//  * campaigns: on a round of one-level gates, whose time-resolved rows
//    are the scalar traces, a width-1 MultiCpaDistinguisher reports what
//    CpaDistinguisher does.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "crypto/leakage.hpp"
#include "crypto/sboxes.hpp"
#include "dpa/attack.hpp"
#include "dpa/distinguisher.hpp"
#include "dpa/streaming.hpp"
#include "engine/trace_engine.hpp"
#include "util/rng.hpp"

namespace sable {
namespace {

// memcmp, not EXPECT_EQ on doubles: -0.0 and +0.0 compare equal as
// doubles but are different scores bit for bit.
void expect_same_bits(const AttackResult& a, const AttackResult& b) {
  ASSERT_EQ(a.score.size(), b.score.size());
  EXPECT_EQ(std::memcmp(a.score.data(), b.score.data(),
                        a.score.size() * sizeof(double)),
            0);
  EXPECT_EQ(a.best_guess, b.best_guess);
  EXPECT_EQ(std::memcmp(&a.margin, &b.margin, sizeof(double)), 0);
}

struct Traces {
  std::vector<std::uint8_t> pts;
  std::vector<double> samples;
};

// Leaking traces at campaign magnitude: a ~1e-13 J offset, the key's
// Hamming-weight leak at ~1e-15 J and noise of the same order.
Traces make_traces(const SboxSpec& spec, std::size_t count,
                   std::uint64_t seed) {
  const std::size_t num_pts = std::size_t{1} << spec.in_bits;
  const std::size_t key = 0x5A % num_pts;
  Traces t;
  t.pts.resize(count);
  t.samples.resize(count);
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    t.pts[i] = static_cast<std::uint8_t>(rng.below(num_pts));
    const unsigned hw = static_cast<unsigned>(
        __builtin_popcount(spec.apply(static_cast<std::uint8_t>(
            t.pts[i] ^ key))));
    t.samples[i] = 1e-13 + 1e-15 * hw + 2e-15 * rng.uniform();
  }
  return t;
}

// Ragged block sizes, the empty and the one-trace block included.
std::vector<std::size_t> ragged_blocks(std::size_t num_blocks,
                                       std::uint64_t seed) {
  std::vector<std::size_t> sizes(num_blocks);
  Rng rng(seed);
  for (std::size_t b = 0; b < num_blocks; ++b) sizes[b] = rng.below(300);
  sizes[3] = 0;
  sizes[7] = 1;
  return sizes;
}

TEST(CpaWidthOneTest, AccumulatorsAgreeBitForBitAfterEveryBlockAndMerge) {
  constexpr std::size_t kBlocks = 40;
  const SboxSpec specs[] = {present_spec(), aes_spec()};
  const PowerModel models[] = {PowerModel::kHammingWeight,
                               PowerModel::kSboxOutputBit};
  std::uint64_t seed = 0xC9A1;
  for (const SboxSpec& spec : specs) {
    for (const PowerModel model : models) {
      SCOPED_TRACE(spec.name);
      SCOPED_TRACE(static_cast<int>(model));
      const std::size_t bit = 1;
      const std::vector<std::size_t> sizes = ragged_blocks(kBlocks, ++seed);
      std::size_t total = 0;
      for (const std::size_t n : sizes) total += n;
      const Traces t = make_traces(spec, total, ++seed);

      // Two halves of the stream, each fed block by block; then one
      // accumulator over the whole stream is built by merging them.
      const auto make_multi = [&] {
        return StreamingCpa::time_resolved(spec, model, 1, bit);
      };
      StreamingCpa scalar[2] = {StreamingCpa(spec, model, bit),
                                StreamingCpa(spec, model, bit)};
      StreamingCpa multi[2] = {make_multi(), make_multi()};
      std::size_t off = 0;
      for (std::size_t b = 0; b < kBlocks; ++b) {
        const std::size_t half = b < kBlocks / 2 ? 0 : 1;
        scalar[half].add_block(t.pts.data() + off, t.samples.data() + off,
                               sizes[b]);
        multi[half].add_block(t.pts.data() + off, t.samples.data() + off,
                              sizes[b]);
        off += sizes[b];
        ASSERT_EQ(scalar[half].count(), multi[half].count());
        if (scalar[half].count() < 2) continue;
        SCOPED_TRACE(b);
        expect_same_bits(scalar[half].result().combined,
                         multi[half].result().combined);
      }

      StreamingCpa scalar_all(spec, model, bit);
      StreamingCpa multi_all = make_multi();
      for (std::size_t half = 0; half < 2; ++half) {
        scalar_all.merge(scalar[half]);
        multi_all.merge(multi[half]);
      }
      ASSERT_EQ(scalar_all.count(), total);
      ASSERT_EQ(multi_all.count(), total);
      expect_same_bits(scalar_all.result().combined,
                       multi_all.result().combined);
    }
  }
}

TEST(CpaWidthOneTest, OneShotAttacksAgreeBitForBit) {
  for (const SboxSpec& spec : {present_spec(), aes_spec()}) {
    SCOPED_TRACE(spec.name);
    const Traces t = make_traces(spec, 1500, 0x0A7);
    TraceSet scalar;
    scalar.plaintexts = t.pts;
    scalar.samples = t.samples;
    for (const PowerModel model :
         {PowerModel::kHammingWeight, PowerModel::kSboxOutputBit}) {
      SCOPED_TRACE(static_cast<int>(model));
      StreamingCpa multi = StreamingCpa::time_resolved(spec, model, 1, 2);
      multi.add_block(t.pts.data(), t.samples.data(), t.pts.size());
      expect_same_bits(cpa_attack(scalar, spec, model, 2),
                       multi.result().combined);
    }
  }
}

// A round of two-input gates: each instance synthesizes to one logic
// level, so its time-resolved rows are one column holding the scalar
// trace. The scalar campaign contracts the engine's shared histogram;
// the width-1 time-resolved campaign bins its own sampled blocks.
TEST(CpaWidthOneTest, WidthOneMultiCpaCampaignMatchesCpaCampaign) {
  const SboxSpec and2{"and2", 2, 1, {0, 0, 0, 1}};
  const SboxSpec or2{"or2", 2, 1, {0, 1, 1, 1}};
  for (const LogicStyle style :
       {LogicStyle::kStaticCmos, LogicStyle::kSablGenuine}) {
    SCOPED_TRACE(static_cast<int>(style));
    const RoundSpec round{{and2, or2, and2}, style};
    TraceEngine engine(round, Technology::generic_180nm());
    ASSERT_EQ(engine.target().num_levels(), 1u);

    CampaignOptions options;
    options.num_traces = 3000;
    options.key = round.pack_subkeys({3, 1, 2});
    options.noise_sigma = 1e-16;
    options.seed = 0x1E7E1;
    options.shard_size = 448;
    options.num_threads = 3;

    std::vector<std::unique_ptr<CpaDistinguisher>> cpa;
    std::vector<std::unique_ptr<MultiCpaDistinguisher>> multi;
    std::vector<Distinguisher*> list;
    for (std::size_t i = 0; i < round.num_sboxes(); ++i) {
      const AttackSelector selector{.sbox_index = i,
                                    .model = PowerModel::kHammingWeight};
      cpa.push_back(
          std::make_unique<CpaDistinguisher>(engine.spec(i), selector));
      multi.push_back(std::make_unique<MultiCpaDistinguisher>(
          engine.spec(i), selector, 1));
      list.push_back(cpa.back().get());
      list.push_back(multi.back().get());
    }
    engine.run_distinguishers(options, list);
    for (std::size_t i = 0; i < round.num_sboxes(); ++i) {
      SCOPED_TRACE(i);
      expect_same_bits(cpa[i]->result(), multi[i]->result().combined);
      EXPECT_EQ(multi[i]->result().best_sample, 0u);
      EXPECT_GT(cpa[i]->result().score[cpa[i]->result().best_guess], 0.0);
    }
  }
}

}  // namespace
}  // namespace sable
