// Width-generic round targets: N S-boxes side by side with summed power.
//
// Under test: the packed-state layout (nibble packing for 4-bit S-boxes,
// heterogeneous widths), per-instance functional correctness, summed
// power against the single-S-box targets, per-subkey attack selection,
// algorithmic-noise MTD monotonicity, and the time-resolved multi-CPA
// campaign against the retained-trace multisample attack.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "cell/circuit_sim.hpp"
#include "crypto/round_target.hpp"
#include "dpa/attack.hpp"
#include "dpa/mtd.hpp"
#include "dpa/streaming.hpp"
#include "engine/trace_engine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sable {
namespace {

const Technology kTech = Technology::generic_180nm();

TEST(RoundSpecTest, PackedStateLayout) {
  // 16 PRESENT nibbles pack into 8 bytes; mixed widths pack LSB-first.
  const RoundSpec present16 = present_round(16, LogicStyle::kStaticCmos);
  EXPECT_EQ(present16.state_bits(), 64u);
  EXPECT_EQ(present16.state_bytes(), 8u);
  EXPECT_EQ(present16.bit_offset(3), 12u);

  RoundSpec mixed;
  mixed.sboxes = {present_spec(), des1_spec(), aes_spec()};
  mixed.style = LogicStyle::kStaticCmos;
  EXPECT_EQ(mixed.state_bits(), 4u + 6u + 8u);
  EXPECT_EQ(mixed.state_bytes(), 3u);

  // Round-trip every instance through set_sub_word / sub_word.
  std::vector<std::uint8_t> state(mixed.state_bytes(), 0);
  mixed.set_sub_word(state.data(), 0, 0xA);
  mixed.set_sub_word(state.data(), 1, 0x2B);
  mixed.set_sub_word(state.data(), 2, 0xC4);
  EXPECT_EQ(mixed.sub_word(state.data(), 0), 0xAu);
  EXPECT_EQ(mixed.sub_word(state.data(), 1), 0x2Bu);
  EXPECT_EQ(mixed.sub_word(state.data(), 2), 0xC4u);
  // Nibble packing: instance 0 is the low nibble, instance 1 straddles
  // the byte boundary.
  EXPECT_EQ(state[0], 0xA | ((0x2B & 0xF) << 4));

  // Overwriting one sub-word leaves the neighbours intact.
  mixed.set_sub_word(state.data(), 1, 0x15);
  EXPECT_EQ(mixed.sub_word(state.data(), 0), 0xAu);
  EXPECT_EQ(mixed.sub_word(state.data(), 1), 0x15u);
  EXPECT_EQ(mixed.sub_word(state.data(), 2), 0xC4u);

  const std::vector<std::uint8_t> packed =
      mixed.pack_subkeys({0x7, 0x3F, 0x80});
  EXPECT_EQ(mixed.sub_word(packed.data(), 0), 0x7u);
  EXPECT_EQ(mixed.sub_word(packed.data(), 1), 0x3Fu);
  EXPECT_EQ(mixed.sub_word(packed.data(), 2), 0x80u);
  EXPECT_THROW(mixed.pack_subkeys({0x7, 0x3F}), InvalidArgument);
  EXPECT_THROW(mixed.set_sub_word(state.data(), 0, 0x10), InvalidArgument);
}

// Per-bit oracles of the packed layout: bit b of a sub-word at `offset` is
// state bit offset + b, LSB-first within each byte.
std::size_t oracle_extract(const std::uint8_t* state, std::size_t offset,
                           std::size_t bits) {
  std::size_t value = 0;
  for (std::size_t b = 0; b < bits; ++b) {
    const std::size_t bit = offset + b;
    value |= static_cast<std::size_t>((state[bit >> 3] >> (bit & 7)) & 1u)
             << b;
  }
  return value;
}

void oracle_deposit(std::uint8_t* state, std::size_t offset,
                    std::size_t bits, std::size_t value) {
  for (std::size_t b = 0; b < bits; ++b) {
    const std::size_t bit = offset + b;
    const auto mask = static_cast<std::uint8_t>(1u << (bit & 7));
    if ((value >> b) & 1u) {
      state[bit >> 3] |= mask;
    } else {
      state[bit >> 3] &= static_cast<std::uint8_t>(~mask);
    }
  }
}

SboxSpec identity_spec(std::size_t bits) {
  SboxSpec spec;
  spec.name = "identity";
  spec.in_bits = bits;
  spec.out_bits = bits;
  spec.table.resize(std::size_t{1} << bits);
  for (std::size_t x = 0; x < spec.table.size(); ++x) {
    spec.table[x] = static_cast<std::uint8_t>(x);
  }
  return spec;
}

TEST(RoundSpecTest, SubWordFieldsMatchPerBitOracleOnRandomLayouts) {
  // Heterogeneous layouts of widths 1..8 in random order put sub-words at
  // every in-byte shift, inside one byte and straddling two; the last
  // instance always ends in the state's final byte. The buffers hold
  // exactly count * state_bytes() bytes, so a read or write past the last
  // state's span trips the address sanitizer.
  Rng layout_rng(0x5B0D);
  std::size_t shifts_seen = 0;  // bit s: some sub-word started at shift s
  bool straddle_seen = false;
  bool in_byte_seen = false;
  for (int trial = 0; trial < 200; ++trial) {
    RoundSpec round;
    const std::size_t n = 1 + layout_rng.below(12);
    std::vector<std::size_t> offsets;
    std::size_t offset = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t bits = 1 + layout_rng.below(8);
      round.sboxes.push_back(identity_spec(bits));
      offsets.push_back(offset);
      shifts_seen |= std::size_t{1} << (offset & 7);
      if ((offset & 7) + bits > 8) {
        straddle_seen = true;
      } else {
        in_byte_seen = true;
      }
      offset += bits;
    }
    const std::size_t stride = round.state_bytes();
    ASSERT_EQ((offset - 1) / 8, stride - 1);  // last bit in the last byte

    const std::size_t count = 1 + layout_rng.below(40);
    std::vector<std::uint8_t> states(count * stride);
    for (std::uint8_t& byte : states) {
      byte = static_cast<std::uint8_t>(layout_rng.below(256));
    }
    std::vector<std::uint8_t> out(count);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t bits = round.sboxes[i].in_bits;
      round.sub_words(states.data(), count, i, out.data());
      for (std::size_t t = 0; t < count; ++t) {
        const std::size_t expected =
            oracle_extract(states.data() + t * stride, offsets[i], bits);
        EXPECT_EQ(out[t], expected) << "trial " << trial << " instance " << i;
        EXPECT_EQ(round.sub_word(states.data() + t * stride, i), expected);
      }
    }

    // set_sub_word rewrites only its own bits: every write matches the
    // oracle deposit on a twin buffer, byte for byte.
    std::vector<std::uint8_t> twin = states;
    for (std::size_t t = 0; t < count; ++t) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t bits = round.sboxes[i].in_bits;
        const std::size_t value = layout_rng.below(std::size_t{1} << bits);
        round.set_sub_word(states.data() + t * stride, i, value);
        oracle_deposit(twin.data() + t * stride, offsets[i], bits, value);
      }
    }
    EXPECT_EQ(states, twin) << "trial " << trial;

    // fill_random_states, bit by bit: state bit 64k + j is bit j of the
    // state's k-th draw, and a final chunk of r < 64 bits takes the top r
    // bits of its draw; the bits above the round's width are zero. The
    // buffer starts out random, so every byte must be written.
    const std::uint64_t seed = layout_rng.next();
    Rng rng(seed);
    Rng oracle_rng(seed);
    round.fill_random_states(rng, count, states.data());
    std::fill(twin.begin(), twin.end(), std::uint8_t{0});
    for (std::size_t t = 0; t < count; ++t) {
      for (std::size_t chunk = 0; chunk < offset; chunk += 64) {
        const std::size_t r = std::min<std::size_t>(64, offset - chunk);
        const std::uint64_t draw = oracle_rng.next();
        for (std::size_t j = 0; j < r; ++j) {
          oracle_deposit(twin.data() + t * stride, chunk + j, 1,
                         (draw >> (64 - r + j)) & 1u);
        }
      }
    }
    EXPECT_EQ(states, twin) << "trial " << trial;
    EXPECT_EQ(rng.next(), oracle_rng.next()) << "trial " << trial;
  }
  EXPECT_EQ(shifts_seen, 0xFFu);
  EXPECT_TRUE(straddle_seen);
  EXPECT_TRUE(in_byte_seen);
}

TEST(RoundSpecTest, SingleSboxFillIsOneBelowDrawPerTrace) {
  // A lone b-bit instance is one final chunk of b bits: the top b bits of
  // one draw, which is exactly below(2^b), so single-S-box plaintexts
  // keep their stream draw for draw.
  for (std::size_t bits = 1; bits <= 8; ++bits) {
    const RoundSpec round = single_sbox_round(identity_spec(bits),
                                              LogicStyle::kStaticCmos);
    const std::size_t count = 1000;
    std::vector<std::uint8_t> states(count, 0xFF);
    Rng rng(0xB17 + bits);
    Rng reference(0xB17 + bits);
    round.fill_random_states(rng, count, states.data());
    for (std::size_t t = 0; t < count; ++t) {
      ASSERT_EQ(states[t], reference.below(std::uint64_t{1} << bits))
          << "bits " << bits << " trace " << t;
    }
    EXPECT_EQ(rng.next(), reference.next()) << "bits " << bits;
  }
}

// Wilson–Hilferty: a chi-square statistic with `df` degrees of freedom
// as an approximately standard normal z.
double chi_square_z(double chi2, double df) {
  const double k = 2.0 / (9.0 * df);
  return (std::cbrt(chi2 / df) - (1.0 - k)) / std::sqrt(k);
}

double chi_square(const std::vector<std::uint64_t>& counts, double expected) {
  double chi2 = 0.0;
  for (std::uint64_t c : counts) {
    const double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  return chi2;
}

TEST(RoundSpecTest, RandomStatesPassPerSubWordAndPairwiseChiSquare) {
  // 10^6 states of the 16-nibble PRESENT round (one draw per state) and
  // the 16-byte AES round (two draws). Each instance's sub-word must be
  // uniform, and so must each adjacent pair of instances — the pairs
  // straddle the 64-bit chunk seam on AES (instances 7 and 8). |z| < 5
  // over these 62 statistics would fail an honest generator with
  // probability ~4e-5.
  const std::size_t count = 1'000'000;
  const LogicStyle style = LogicStyle::kStaticCmos;
  for (const RoundSpec& round :
       {present_round(16, style), aes_subbytes_round(16, style)}) {
    const std::size_t n = round.num_sboxes();
    const std::size_t bits = round.sboxes[0].in_bits;
    const std::size_t values = std::size_t{1} << bits;
    std::vector<std::uint8_t> states(count * round.state_bytes());
    Rng rng(0xC415);
    round.fill_random_states(rng, count, states.data());
    std::vector<std::vector<std::uint8_t>> words(
        n, std::vector<std::uint8_t>(count));
    for (std::size_t i = 0; i < n; ++i) {
      round.sub_words(states.data(), count, i, words[i].data());
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<std::uint64_t> single(values, 0);
      for (std::uint8_t w : words[i]) ++single[w];
      const double z = chi_square_z(
          chi_square(single, static_cast<double>(count) / values),
          static_cast<double>(values - 1));
      EXPECT_LT(std::fabs(z), 5.0) << "bits " << bits << " instance " << i;
      if (i + 1 == n) continue;
      std::vector<std::uint64_t> pair(values * values, 0);
      for (std::size_t t = 0; t < count; ++t) {
        ++pair[words[i][t] * values + words[i + 1][t]];
      }
      const double zp = chi_square_z(
          chi_square(pair, static_cast<double>(count) / (values * values)),
          static_cast<double>(values * values - 1));
      EXPECT_LT(std::fabs(zp), 5.0)
          << "bits " << bits << " instances " << i << ", " << i + 1;
    }
  }
}

TEST(RoundSpecTest, SubWordWidthOutsideOneToEightThrows) {
  // A 9-bit instance does not fit the byte-wide sub-plaintext: every
  // accessor rejects it instead of truncating it.
  RoundSpec round;
  round.sboxes = {present_spec(), identity_spec(9)};
  std::vector<std::uint8_t> states(4 * round.state_bytes(), 0);
  std::vector<std::uint8_t> out(4);
  Rng rng(1);
  EXPECT_EQ(round.sub_word(states.data(), 0), 0u);
  EXPECT_THROW(round.sub_word(states.data(), 1), InvalidArgument);
  EXPECT_THROW(round.sub_words(states.data(), 4, 1, out.data()),
               InvalidArgument);
  EXPECT_THROW(round.set_sub_word(states.data(), 1, 0x1FF), InvalidArgument);
  EXPECT_THROW(round.fill_random_states(rng, 4, states.data()),
               InvalidArgument);
  EXPECT_THROW(RoundTarget(round, kTech), InvalidArgument);
  round.sboxes = {identity_spec(0), present_spec()};
  EXPECT_THROW(round.sub_word(states.data(), 0), InvalidArgument);
  EXPECT_THROW(round.fill_random_states(rng, 1, states.data()),
               InvalidArgument);
  EXPECT_THROW(RoundTarget(round, kTech), InvalidArgument);
}

TEST(RoundTargetTest, EveryInstanceComputesItsReferenceSbox) {
  // Heterogeneous round: each instance's synthesized circuit must realize
  // its own S-box table, independent of the neighbours.
  RoundSpec round;
  round.sboxes = {present_spec(), des1_spec(), present_spec()};
  round.style = LogicStyle::kSablFullyConnected;
  RoundTarget target(round, kTech);
  for (std::size_t i = 0; i < round.num_sboxes(); ++i) {
    const SboxSpec& spec = round.sboxes[i];
    for (std::uint64_t x = 0; x < (std::uint64_t{1} << spec.in_bits); ++x) {
      EXPECT_EQ(evaluate_circuit(target.circuit(i), x),
                spec.apply(static_cast<std::uint8_t>(x)))
          << "instance " << i << " input " << x;
    }
  }
  // reference() applies the per-instance subkey of the packed round key.
  const std::vector<std::uint8_t> key = round.pack_subkeys({0x3, 0x2A, 0xC});
  std::vector<std::uint8_t> pt(round.state_bytes(), 0);
  round.set_sub_word(pt.data(), 0, 0x9);
  round.set_sub_word(pt.data(), 1, 0x11);
  round.set_sub_word(pt.data(), 2, 0x5);
  EXPECT_EQ(target.reference(0, pt.data(), key.data()),
            present_sbox(0x9 ^ 0x3));
  EXPECT_EQ(target.reference(1, pt.data(), key.data()),
            des_sbox1(0x11 ^ 0x2A));
  EXPECT_EQ(target.reference(2, pt.data(), key.data()),
            present_sbox(0x5 ^ 0xC));
}

TEST(RoundTargetTest, SummedPowerEqualsSumOfSingleTargets) {
  // History-free style: the round's power sample must equal the sum of
  // independent single-S-box targets fed the matching sub-words.
  RoundSpec round;
  round.sboxes = {present_spec(), des1_spec()};
  round.style = LogicStyle::kSablFullyConnected;
  RoundTarget target(round, kTech);
  RoundTarget a(
      single_sbox_round(present_spec(), LogicStyle::kSablFullyConnected),
      kTech);
  RoundTarget b(single_sbox_round(des1_spec(), LogicStyle::kSablFullyConnected),
                kTech);
  const std::uint8_t key_a = 0x6;
  const std::uint8_t key_b = 0x19;
  const std::vector<std::uint8_t> key = round.pack_subkeys({key_a, key_b});
  Rng pts(0x1234);
  Rng no_noise(0);
  std::vector<std::uint8_t> state(round.state_bytes(), 0);
  for (int i = 0; i < 100; ++i) {
    const auto pa = static_cast<std::uint8_t>(pts.below(16));
    const auto pb = static_cast<std::uint8_t>(pts.below(64));
    round.set_sub_word(state.data(), 0, pa);
    round.set_sub_word(state.data(), 1, pb);
    const double summed = target.trace(state.data(), key.data(), 0.0,
                                       no_noise);
    const double expected = a.trace(&pa, &key_a, 0.0, no_noise) +
                            b.trace(&pb, &key_b, 0.0, no_noise);
    EXPECT_DOUBLE_EQ(summed, expected) << i;
  }
}

TEST(RoundTargetTest, BatchedRoundTracesMatchScalar) {
  // CMOS carries per-lane history, so lane L of a batch must track a
  // scalar target fed every 64th wide plaintext.
  const RoundSpec round = present_round(2, LogicStyle::kStaticCmos);
  RoundTarget batch(round, kTech);
  const std::vector<std::uint8_t> key = round.pack_subkeys({0x4, 0xD});
  const std::size_t count = 192;
  const std::size_t stride = round.state_bytes();
  Rng pts_rng(0xABC);
  std::vector<std::uint8_t> pts(count * stride, 0);
  for (std::size_t t = 0; t < count; ++t) {
    for (std::size_t j = 0; j < round.num_sboxes(); ++j) {
      round.set_sub_word(pts.data() + t * stride, j, pts_rng.below(16));
    }
  }
  std::vector<double> out(count);
  Rng no_noise(0);
  batch.trace_batch(pts.data(), count, key.data(), 0.0, no_noise, out.data());
  constexpr std::size_t kLanes = SablGateSimBatch::kLanes;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    RoundTarget scalar(round, kTech);
    for (std::size_t t = lane; t < count; t += kLanes) {
      EXPECT_EQ(out[t],
                scalar.trace(pts.data() + t * stride, key.data(), 0.0,
                             no_noise))
          << "lane " << lane << " trace " << t;
    }
  }
}

// with_lane_width<W>() variants share the tables and lookup body, so
// they must trace bit-identically to the target they came from, ragged
// tails and the static-CMOS lane history included. 777 = 12 * 64 + 9
// leaves a partial lane group, and N = 1 vs N = 3 covers the single- and
// multi-instance paths.
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

TEST(RoundTargetTest, LaneWidthVariantsTraceBitIdenticallyWithRaggedTails) {
  const std::size_t count = 777;
  for (LogicStyle style :
       {LogicStyle::kStaticCmos, LogicStyle::kSablGenuine,
        LogicStyle::kSablFullyConnected, LogicStyle::kSablEnhanced,
        LogicStyle::kWddlBalanced, LogicStyle::kWddlMismatched}) {
    for (std::size_t n : {std::size_t{1}, std::size_t{3}}) {
      const RoundSpec round = present_round(n, style);
      RoundTarget base(round, kTech);
      std::vector<std::uint8_t> pts(count * round.state_bytes());
      Rng pt_rng(0x7A11);
      round.fill_random_states(pt_rng, count, pts.data());
      std::vector<std::uint8_t> key(round.state_bytes(), 0x6B);
      const std::vector<double> reference =
          trace_with_width<std::uint64_t>(base, pts, count, key);
      const std::vector<double> traces =
          trace_with_width<Word128>(base, pts, count, key);
      for (std::size_t t = 0; t < count; ++t) {
        ASSERT_EQ(traces[t], reference[t])
            << to_string(style) << " n " << n << " trace " << t;
      }
    }
  }
}

TEST(RoundEngineTest, CpaCampaignRecoversTheSelectedSubkey) {
  // Four PRESENT instances with distinct subkeys: attacking instance i
  // must recover subkey i — not any neighbour's — through 3 instances'
  // worth of algorithmic noise.
  const RoundSpec round = present_round(4, LogicStyle::kStaticCmos);
  const std::vector<std::size_t> subkeys = {0x3, 0xE, 0x8, 0x6};
  TraceEngine engine(round, kTech);
  CampaignOptions options;
  options.num_traces = 6000;
  options.key = round.pack_subkeys(subkeys);
  options.noise_sigma = 1e-16;
  options.seed = 0x40D;
  for (std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    const AttackResult result = run_attack(
        engine, options,
        CpaDistinguisher(engine.spec(i),
                         AttackSelector{.sbox_index = i,
                                        .model = PowerModel::kHammingWeight}));
    EXPECT_EQ(result.score.size(), 16u);
    EXPECT_EQ(result.best_guess, subkeys[i]) << "attacked instance " << i;
  }
}

TEST(RoundEngineTest, AlgorithmicNoiseGrowsMtdWithRoundSize) {
  // The neighbours' switching is algorithmic noise: disclosing the same
  // subkey must take more traces the more instances surround it.
  std::vector<std::size_t> mtds;
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const RoundSpec round = present_round(n, LogicStyle::kStaticCmos);
    std::vector<std::size_t> subkeys(n);
    for (std::size_t j = 0; j < n; ++j) subkeys[j] = (0xB + 5 * j) & 0xF;
    TraceEngine engine(round, kTech);
    CampaignOptions options;
    options.num_traces = 20000;
    options.key = round.pack_subkeys(subkeys);
    options.noise_sigma = 2e-16;
    options.seed = 0x3D7;
    const MtdResult mtd = run_attack(
        engine, options,
        MtdDistinguisher(engine.spec(),
                         AttackSelector{.model = PowerModel::kHammingWeight},
                         round.sub_word(options.key.data(), 0),
                         default_checkpoints(options.num_traces),
                         options.num_traces));
    ASSERT_TRUE(mtd.disclosed) << "round size " << n;
    mtds.push_back(mtd.mtd);
  }
  EXPECT_LE(mtds[0], mtds[1]);
  EXPECT_LE(mtds[1], mtds[2]);
  EXPECT_LT(mtds[0], mtds[2]);
}

TEST(RoundEngineTest, MultiCpaCampaignMatchesRetainedMultisampleAttack) {
  // The time-resolved sharded campaign must agree to 1e-12 with one
  // time-resolved accumulator fed the identical traces as one block.
  const RoundSpec round = present_round(3, LogicStyle::kSablGenuine);
  const std::vector<std::size_t> subkeys = {0x9, 0x4, 0xD};
  const AttackSelector selector{.sbox_index = 1,
                                .model = PowerModel::kHammingWeight};
  CampaignOptions options;
  options.num_traces = 1500;
  options.key = round.pack_subkeys(subkeys);
  options.noise_sigma = 1e-16;
  options.seed = 0x3117;
  options.shard_size = 448;  // several shards, one partial tail

  TraceEngine engine(round, kTech);
  const MultiAttackResult streamed = run_attack(
      engine, options,
      MultiCpaDistinguisher(engine.spec(selector.sbox_index), selector,
                            engine.target().num_levels()));

  // Retain the same campaign via stream_sampled and feed the attacked
  // instance's sub-plaintexts to one accumulator as a single block, so the
  // campaign's per-shard merges are checked against a whole-set pass.
  TraceEngine engine2(round, kTech);
  const std::size_t width = engine2.target().num_levels();
  ASSERT_GT(width, 1u);
  std::vector<std::uint8_t> retained_pts;
  std::vector<double> retained_rows;
  retained_pts.reserve(options.num_traces);
  retained_rows.reserve(options.num_traces * width);
  std::vector<std::uint8_t> sub_pts(campaign_shard_size(options));
  engine2.stream_sampled(
      options, [&](const std::uint8_t* pts, const double* rows,
                   std::size_t count) {
        round.sub_words(pts, count, selector.sbox_index, sub_pts.data());
        retained_pts.insert(retained_pts.end(), sub_pts.data(),
                            sub_pts.data() + count);
        retained_rows.insert(retained_rows.end(), rows, rows + count * width);
      });
  ASSERT_EQ(retained_pts.size(), options.num_traces);
  StreamingCpa whole_set = StreamingCpa::time_resolved(
      round.sboxes[selector.sbox_index], selector.model, width, selector.bit);
  whole_set.add_block(retained_pts.data(), retained_rows.data(),
                      retained_pts.size());
  const MultiAttackResult batch = whole_set.result();

  ASSERT_EQ(streamed.combined.score.size(), batch.combined.score.size());
  for (std::size_t g = 0; g < batch.combined.score.size(); ++g) {
    EXPECT_NEAR(streamed.combined.score[g], batch.combined.score[g], 1e-12)
        << g;
  }
  EXPECT_EQ(streamed.combined.best_guess, batch.combined.best_guess);
  EXPECT_EQ(streamed.best_sample, batch.best_sample);
}

TEST(RoundEngineTest, RunRetainsWideStatesAndStreamMatches) {
  const RoundSpec round = present_round(5, LogicStyle::kSablFullyConnected);
  TraceEngine engine(round, kTech);
  CampaignOptions options;
  options.num_traces = 300;
  options.key = round.pack_subkeys({1, 2, 3, 4, 5});
  options.noise_sigma = 1e-16;
  options.seed = 0xF00D;
  options.shard_size = 128;
  const TraceSet traces = engine.run(options);
  EXPECT_EQ(traces.pt_width, round.state_bytes());
  EXPECT_EQ(traces.plaintexts.size(),
            options.num_traces * round.state_bytes());
  ASSERT_EQ(traces.size(), options.num_traces);

  TraceEngine engine2(round, kTech);
  TraceSet collected;
  collected.pt_width = round.state_bytes();
  collected.reserve(options.num_traces);
  engine2.stream(options,
                 [&](const std::uint8_t* pts, const double* samples,
                     std::size_t n) {
                   collected.plaintexts.insert(collected.plaintexts.end(), pts,
                                               pts + n * collected.pt_width);
                   collected.samples.insert(collected.samples.end(), samples,
                                            samples + n);
                 });
  ASSERT_EQ(collected.size(), traces.size());
  EXPECT_EQ(collected.plaintexts, traces.plaintexts);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(collected.samples[i], traces.samples[i]) << i;
  }

  // The campaign key must match the round's packed width.
  CampaignOptions bad = options;
  bad.key = {0x1};
  EXPECT_THROW(engine.run(bad), InvalidArgument);
}

// Time-resolved campaigns cover the baseline style too: cycle_sampled on
// the CMOS batch sim feeds the multi-CPA campaign, which must agree with a
// time-resolved accumulator fed the identical traces as one block — and the
// HD leak is strong enough that the oscilloscope-style attack recovers
// the subkey.
TEST(RoundEngineTest, MultiCpaCampaignCoversStaticCmos) {
  const RoundSpec round = present_round(2, LogicStyle::kStaticCmos);
  const std::vector<std::size_t> subkeys = {0xB, 0x4};
  const AttackSelector selector{.sbox_index = 0,
                                .model = PowerModel::kHammingWeight};
  CampaignOptions options;
  options.num_traces = 3000;
  options.key = round.pack_subkeys(subkeys);
  options.noise_sigma = 1e-16;
  options.seed = 0xC405;
  options.shard_size = 448;

  TraceEngine engine(round, kTech);
  ASSERT_GT(engine.target().num_levels(), 0u);
  const MultiAttackResult streamed = run_attack(
      engine, options,
      MultiCpaDistinguisher(engine.spec(selector.sbox_index), selector,
                            engine.target().num_levels()));
  EXPECT_EQ(streamed.combined.best_guess, subkeys[0]);

  TraceEngine engine2(round, kTech);
  const std::size_t width = engine2.target().num_levels();
  std::vector<std::uint8_t> retained_pts;
  std::vector<double> retained_rows;
  retained_pts.reserve(options.num_traces);
  retained_rows.reserve(options.num_traces * width);
  std::vector<std::uint8_t> sub_pts(campaign_shard_size(options));
  engine2.stream_sampled(
      options, [&](const std::uint8_t* pts, const double* rows,
                   std::size_t count) {
        round.sub_words(pts, count, selector.sbox_index, sub_pts.data());
        retained_pts.insert(retained_pts.end(), sub_pts.data(),
                            sub_pts.data() + count);
        retained_rows.insert(retained_rows.end(), rows, rows + count * width);
      });
  ASSERT_EQ(retained_pts.size(), options.num_traces);
  StreamingCpa whole_set = StreamingCpa::time_resolved(
      round.sboxes[selector.sbox_index], selector.model, width, selector.bit);
  whole_set.add_block(retained_pts.data(), retained_rows.data(),
                      retained_pts.size());
  const MultiAttackResult batch = whole_set.result();
  ASSERT_EQ(streamed.combined.score.size(), batch.combined.score.size());
  for (std::size_t g = 0; g < batch.combined.score.size(); ++g) {
    EXPECT_NEAR(streamed.combined.score[g], batch.combined.score[g], 1e-12)
        << g;
  }
  EXPECT_EQ(streamed.best_sample, batch.best_sample);
}

}  // namespace
}  // namespace sable
