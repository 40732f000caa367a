// Tabulated leakage against direct simulation: the table-driven round
// target must reproduce the per-trace switch-level simulation
// (reference_simulation.hpp) bit for bit — every logic style, scalar and
// time-resolved data, ragged counts, noise on and off, chained static-CMOS
// calls and scalar trace() sequences, nibble-, byte- and bit-straddling
// layouts — and identical instances must share one table. Fingerprints
// pin every style's table bits independently of the simulators.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "crypto/round_target.hpp"
#include "engine/trace_engine.hpp"
#include "reference_simulation.hpp"
#include "util/rng.hpp"

namespace sable {
namespace {

const Technology kTech = Technology::generic_180nm();

constexpr LogicStyle kStyles[] = {
    LogicStyle::kStaticCmos,         LogicStyle::kSablGenuine,
    LogicStyle::kSablFullyConnected, LogicStyle::kSablEnhanced,
    LogicStyle::kWddlBalanced,       LogicStyle::kWddlMismatched};

constexpr std::size_t kCounts[] = {1, 63, 64, 65, 4133};

// Doubles that differ in any bit (so -0.0 vs 0.0 counts too).
std::size_t differing(const std::vector<double>& a,
                      const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  std::size_t n = 0;
  for (std::size_t k = 0; k < a.size() && k < b.size(); ++k) {
    if (std::bit_cast<std::uint64_t>(a[k]) !=
        std::bit_cast<std::uint64_t>(b[k])) {
      ++n;
    }
  }
  return n;
}

// A non-zero subkey per instance.
std::vector<std::uint8_t> round_key(const RoundSpec& round) {
  std::vector<std::size_t> subkeys;
  for (std::size_t i = 0; i < round.num_sboxes(); ++i) {
    const std::size_t mask = (std::size_t{1} << round.sboxes[i].in_bits) - 1;
    subkeys.push_back((0x5 + 7 * i) & mask);
  }
  return round.pack_subkeys(subkeys);
}

// Sixteen PRESENT S-boxes (nibble-packed), one PRESENT S-box (the
// one-byte-state path), and PRESENT + DES S1 + PRESENT, whose DES input
// straddles a byte boundary.
std::vector<RoundSpec> rounds_for(LogicStyle style) {
  RoundSpec mixed;
  mixed.sboxes = {present_spec(), des1_spec(), present_spec()};
  mixed.style = style;
  return {present_round(16, style), single_sbox_round(present_spec(), style),
          mixed};
}

// trace_batch / trace_batch_sampled of a fresh target and a fresh oracle
// over the same campaign-style plaintexts and noise stream.
void expect_batches_match(const RoundSpec& round, std::size_t count,
                          double sigma, bool sampled) {
  SCOPED_TRACE(std::string(to_string(round.style)) + " x" +
               std::to_string(round.num_sboxes()) + " count " +
               std::to_string(count) + (sampled ? " sampled" : " scalar") +
               (sigma != 0.0 ? " noisy" : ""));
  RoundTarget target(round, kTech);
  ReferenceRound oracle(target, kTech);
  const std::vector<std::uint8_t> key = round_key(round);
  std::vector<std::uint8_t> pts(count * round.state_bytes());
  Rng pt_rng(0x51ED + count);
  round.fill_random_states(pt_rng, count, pts.data());
  const std::size_t width = sampled ? target.num_levels() : 1;
  ASSERT_EQ(width, sampled ? oracle.num_levels() : 1);
  std::vector<double> got(count * width);
  std::vector<double> want(count * width);
  Rng noise_a(0xA015E);
  Rng noise_b(0xA015E);
  if (sampled) {
    target.trace_batch_sampled(pts.data(), count, key.data(), sigma, noise_a,
                               got.data());
    oracle.trace_batch_sampled(pts.data(), count, key.data(), sigma, noise_b,
                               want.data());
  } else {
    target.trace_batch(pts.data(), count, key.data(), sigma, noise_a,
                       got.data());
    oracle.trace_batch(pts.data(), count, key.data(), sigma, noise_b,
                       want.data());
  }
  EXPECT_EQ(differing(got, want), 0u);
  EXPECT_EQ(noise_a.next(), noise_b.next());  // same draws consumed
}

TEST(LeakageTableTest, TraceBatchMatchesDirectSimulation) {
  for (LogicStyle style : kStyles) {
    for (const RoundSpec& round : rounds_for(style)) {
      for (std::size_t count : kCounts) {
        for (double sigma : {0.0, 3e-16}) {
          expect_batches_match(round, count, sigma, false);
        }
      }
    }
  }
}

TEST(LeakageTableTest, TraceBatchSampledMatchesDirectSimulation) {
  for (LogicStyle style : kStyles) {
    for (const RoundSpec& round : rounds_for(style)) {
      for (std::size_t count : kCounts) {
        for (double sigma : {0.0, 3e-16}) {
          expect_batches_match(round, count, sigma, true);
        }
      }
    }
  }
}

// An 8-bit S-box: the static-CMOS pair rows span all 65,536 input pairs.
TEST(LeakageTableTest, ByteWideSboxMatchesDirectSimulation) {
  for (LogicStyle style :
       {LogicStyle::kStaticCmos, LogicStyle::kSablFullyConnected}) {
    const RoundSpec round = single_sbox_round(aes_spec(), style);
    expect_batches_match(round, 4133, 0.0, false);
    expect_batches_match(round, 4133, 0.0, true);
  }
}

// Static CMOS history carries across calls: ragged chained calls with no
// reset in between, then a reset, must match the simulators' lane history
// — including calls whose lanes only partly have a previous input.
TEST(LeakageTableTest, ChainedCmosCallsKeepLaneHistory) {
  const RoundSpec round = present_round(16, LogicStyle::kStaticCmos);
  RoundTarget target(round, kTech);
  ReferenceRound oracle(target, kTech);
  const std::vector<std::uint8_t> key = round_key(round);
  Rng pt_rng(0xC4A1);
  Rng noise_a(0x7);
  Rng noise_b(0x7);
  for (std::size_t count : {37, 100, 200, 30, 64, 1}) {
    std::vector<std::uint8_t> pts(count * round.state_bytes());
    round.fill_random_states(pt_rng, count, pts.data());
    std::vector<double> got(count);
    std::vector<double> want(count);
    target.trace_batch(pts.data(), count, key.data(), 1e-16, noise_a,
                       got.data());
    oracle.trace_batch(pts.data(), count, key.data(), 1e-16, noise_b,
                       want.data());
    EXPECT_EQ(differing(got, want), 0u) << "count " << count;
    if (count == 200) {
      target.reset_state();
      oracle.reset();
    }
  }
}

// The time-resolved rows keep the same lane history: ragged chained
// trace_batch_sampled calls, a reset, then more calls, on the uniform
// 16-instance round and on the mixed round, whose DES instance is twice
// as deep as its PRESENT neighbours.
TEST(LeakageTableTest, ChainedCmosSampledCallsKeepLaneHistory) {
  RoundSpec mixed;
  mixed.sboxes = {present_spec(), des1_spec(), present_spec()};
  mixed.style = LogicStyle::kStaticCmos;
  for (const RoundSpec& round :
       {present_round(16, LogicStyle::kStaticCmos), mixed}) {
    SCOPED_TRACE("x" + std::to_string(round.num_sboxes()));
    RoundTarget target(round, kTech);
    ReferenceRound oracle(target, kTech);
    const std::size_t width = target.num_levels();
    ASSERT_EQ(width, oracle.num_levels());
    const std::vector<std::uint8_t> key = round_key(round);
    Rng pt_rng(0xC4A2);
    Rng noise_a(0x8);
    Rng noise_b(0x8);
    for (std::size_t count : {37, 100, 200, 30, 64, 1, 129}) {
      std::vector<std::uint8_t> pts(count * round.state_bytes());
      round.fill_random_states(pt_rng, count, pts.data());
      std::vector<double> got(count * width);
      std::vector<double> want(count * width);
      target.trace_batch_sampled(pts.data(), count, key.data(), 1e-16,
                                 noise_a, got.data());
      oracle.trace_batch_sampled(pts.data(), count, key.data(), 1e-16,
                                 noise_b, want.data());
      EXPECT_EQ(differing(got, want), 0u) << "count " << count;
      if (count == 200) {
        target.reset_state();
        oracle.reset();
      }
    }
    EXPECT_EQ(noise_a.next(), noise_b.next());
  }
}

// Eleven DES S1 instances: 66 state bits in two 64-bit words, with
// instance 10 at bits 60..65, straddling from the first into the second.
RoundSpec des1_round(LogicStyle style) {
  RoundSpec round;
  round.sboxes.assign(11, des1_spec());
  round.style = style;
  return round;
}

// Multi-word states: sixteen AES S-boxes (a 128-bit state, and rows of
// 20 levels, wider than any compile-time row width) and the straddling
// DES round, over counts around the 64-lane history and the traces the
// kernel keeps in flight, noise on and off.
TEST(LeakageTableTest, MultiWordStatesMatchDirectSimulation) {
  ASSERT_EQ(des1_round(LogicStyle::kStaticCmos).bit_offset(10), 60u);
  for (LogicStyle style :
       {LogicStyle::kStaticCmos, LogicStyle::kSablEnhanced,
        LogicStyle::kWddlMismatched}) {
    for (const RoundSpec& round :
         {aes_subbytes_round(16, style), des1_round(style)}) {
      for (std::size_t count : {1, 63, 65, 133}) {
        for (double sigma : {0.0, 3e-16}) {
          expect_batches_match(round, count, sigma, false);
          expect_batches_match(round, count, sigma, true);
        }
      }
    }
  }
}

// ---- Random layouts ------------------------------------------------------

// The traces the scalar-row kernel keeps in flight: counts around it run
// whole groups, a partial group, and single traces.
constexpr std::size_t kInFlight = 8;
constexpr std::size_t kLayoutCounts[] = {
    0, 1, kInFlight - 1, kInFlight, kInFlight + 1, 2 * kInFlight + 1,
    63, 64, 65, 129};

// A random S-box of `in_bits` inputs whose every output bit depends on
// the input (two outputs, one for a 1-bit input).
SboxSpec random_spec(std::size_t in_bits, Rng& rng) {
  SboxSpec spec;
  spec.name = "random";
  spec.in_bits = in_bits;
  spec.out_bits = in_bits == 1 ? 1 : 2;
  const std::size_t rows = std::size_t{1} << in_bits;
  for (bool constant_bit = true; constant_bit;) {
    spec.table.resize(rows);
    for (std::uint8_t& entry : spec.table) {
      entry = static_cast<std::uint8_t>(rng.below(std::size_t{1}
                                                  << spec.out_bits));
    }
    constant_bit = false;
    for (std::size_t bit = 0; bit < spec.out_bits; ++bit) {
      bool ones = false;
      bool zeros = false;
      for (std::uint8_t entry : spec.table) {
        ((entry >> bit) & 1 ? ones : zeros) = true;
      }
      constant_bit = constant_bit || !(ones && zeros);
    }
  }
  return spec;
}

// Heterogeneous rounds of random 1-6-bit S-boxes mixed with DES S1 and
// AES instances, drawn from a fixed seed until, over all of them, an
// instance starts at every bit position 0..63 of a 64-bit state word,
// one ends exactly at a word's end, and one of every width above 1
// straddles two words. The draw prefers a width whose straddle or word
// end is still missing, then one that ends where no instance has started.
std::vector<std::vector<SboxSpec>> random_layouts() {
  Rng rng(0x1A7007);
  std::vector<SboxSpec> pool;
  for (std::size_t bits = 1; bits <= 6; ++bits) {
    pool.push_back(random_spec(bits, rng));
    pool.push_back(random_spec(bits, rng));
  }
  pool.push_back(des1_spec());
  pool.push_back(aes_spec());
  std::vector<bool> starts(64, false);
  std::vector<bool> straddles(9, false);
  bool word_end = false;
  const auto covered = [&] {
    bool all = word_end;
    for (bool start : starts) all = all && start;
    for (std::size_t bits : {2, 3, 4, 5, 6, 8}) all = all && straddles[bits];
    return all;
  };
  std::vector<std::vector<SboxSpec>> layouts;
  while (!covered()) {
    EXPECT_LT(layouts.size(), 6u) << "random layouts stopped covering";
    if (layouts.size() >= 6) break;
    std::vector<SboxSpec> layout;
    for (std::size_t offset = 0; offset < 256;) {
      const std::size_t shift = offset % 64;
      const SboxSpec* spec = &pool[rng.below(pool.size())];
      for (const SboxSpec& wanted : pool) {
        const std::size_t end = shift + wanted.in_bits;
        if (!starts[end % 64]) spec = &wanted;
      }
      for (const SboxSpec& wanted : pool) {
        const std::size_t end = shift + wanted.in_bits;
        if ((end > 64 && !straddles[wanted.in_bits]) ||
            (end == 64 && !word_end)) {
          spec = &wanted;
        }
      }
      starts[shift] = true;
      word_end = word_end || shift + spec->in_bits == 64;
      if (shift + spec->in_bits > 64) straddles[spec->in_bits] = true;
      layout.push_back(*spec);
      offset += spec->in_bits;
    }
    layouts.push_back(std::move(layout));
  }
  return layouts;
}

// One batch of `target` and `oracle` over the same plaintexts and noise
// stream. A count of 0 must write nothing and draw no noise.
void expect_batch_matches(RoundTarget& target, ReferenceRound& oracle,
                          const std::vector<std::uint8_t>& key,
                          std::size_t count, double sigma, bool sampled,
                          Rng& pt_rng, Rng& noise_a, Rng& noise_b) {
  SCOPED_TRACE("count " + std::to_string(count) +
               (sampled ? " sampled" : " scalar") +
               (sigma != 0.0 ? " noisy" : ""));
  const RoundSpec& round = target.round();
  const std::size_t width = sampled ? target.num_levels() : 1;
  ASSERT_EQ(width, sampled ? oracle.num_levels() : 1);
  std::vector<std::uint8_t> pts(count * round.state_bytes());
  round.fill_random_states(pt_rng, count, pts.data());
  // One spare sample past the rows: nothing may write it.
  constexpr double kSentinel = -1.0;
  std::vector<double> got(count * width + 1, kSentinel);
  std::vector<double> want(count * width + 1, kSentinel);
  const Rng noise_before = noise_a;
  if (sampled) {
    target.trace_batch_sampled(pts.data(), count, key.data(), sigma, noise_a,
                               got.data());
    oracle.trace_batch_sampled(pts.data(), count, key.data(), sigma, noise_b,
                               want.data());
  } else {
    target.trace_batch(pts.data(), count, key.data(), sigma, noise_a,
                       got.data());
    oracle.trace_batch(pts.data(), count, key.data(), sigma, noise_b,
                       want.data());
  }
  EXPECT_EQ(differing(got, want), 0u);
  EXPECT_EQ(got.back(), kSentinel);
  Rng a = noise_a;
  Rng b = noise_b;
  EXPECT_EQ(a.next(), b.next());  // the same draws consumed
  if (count == 0) {
    Rng untouched = noise_before;
    a = noise_a;
    EXPECT_EQ(a.next(), untouched.next());  // and none at all
  }
}

// Random heterogeneous layouts (every in-word bit position, word-end and
// straddling sub-words) in a constant style, WDDL-mismatched and static
// CMOS: scalar and time-resolved rows around the traces in flight and
// the 64-lane history, noise on and off, each from fresh history.
TEST(LeakageTableTest, RandomLayoutsMatchDirectSimulation) {
  for (const std::vector<SboxSpec>& layout : random_layouts()) {
    for (LogicStyle style :
         {LogicStyle::kSablEnhanced, LogicStyle::kWddlMismatched,
          LogicStyle::kStaticCmos}) {
      RoundSpec round;
      round.sboxes = layout;
      round.style = style;
      SCOPED_TRACE(std::string(to_string(style)) + " x" +
                   std::to_string(round.num_sboxes()) + ", " +
                   std::to_string(round.state_bits()) + " bits");
      RoundTarget target(round, kTech);
      ReferenceRound oracle(target, kTech);
      const std::vector<std::uint8_t> key = round_key(round);
      Rng pt_rng(0x1A70);
      for (std::size_t count : kLayoutCounts) {
        for (double sigma : {0.0, 3e-16}) {
          for (bool sampled : {false, true}) {
            target.reset_state();
            oracle.reset();
            Rng noise_a(0x1A71 + count);
            Rng noise_b(0x1A71 + count);
            expect_batch_matches(target, oracle, key, count, sigma, sampled,
                                 pt_rng, noise_a, noise_b);
          }
        }
      }
    }
  }
}

// Static CMOS history over random layouts: chained calls whose
// boundaries fall off the 64-lane grid, scalar and time-resolved alike,
// with scalar trace() calls (lane 0) and empty calls in between.
TEST(LeakageTableTest, RandomLayoutCmosHistoryChainsAcrossCalls) {
  for (const std::vector<SboxSpec>& layout : random_layouts()) {
    RoundSpec round;
    round.sboxes = layout;
    round.style = LogicStyle::kStaticCmos;
    SCOPED_TRACE("x" + std::to_string(round.num_sboxes()));
    RoundTarget target(round, kTech);
    ReferenceRound oracle(target, kTech);
    const std::vector<std::uint8_t> key = round_key(round);
    Rng pt_rng(0xC4A3);
    Rng noise_a(0xA);
    Rng noise_b(0xA);
    std::vector<std::uint8_t> pt(round.state_bytes());
    const auto scalar_traces = [&](int n) {
      for (int k = 0; k < n; ++k) {
        round.fill_random_states(pt_rng, 1, pt.data());
        const double got = target.trace(pt.data(), key.data(), 2e-16, noise_a);
        const double want =
            oracle.trace(pt.data(), key.data(), 2e-16, noise_b);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(want));
      }
    };
    for (bool sampled : {false, true}) {
      SCOPED_TRACE(sampled ? "sampled" : "scalar");
      target.reset_state();
      oracle.reset();
      for (std::size_t count : {37, 0, 100, 9, 129, 0, 1, 70}) {
        expect_batch_matches(target, oracle, key, count, 1e-16, sampled,
                             pt_rng, noise_a, noise_b);
        scalar_traces(count % 3 + 1);
      }
    }
  }
}

// Scalar trace() is the one-trace call: it runs in logical lane 0, so a
// sequence of them chains through lane 0's history, and a batch after
// them sees it.
TEST(LeakageTableTest, ScalarTraceSequenceMatchesDirectSimulation) {
  for (LogicStyle style : kStyles) {
    SCOPED_TRACE(to_string(style));
    const RoundSpec round = present_round(4, style);
    RoundTarget target(round, kTech);
    ReferenceRound oracle(target, kTech);
    const std::vector<std::uint8_t> key = round_key(round);
    Rng pt_rng(0x5CA1);
    Rng noise_a(0x9);
    Rng noise_b(0x9);
    std::vector<std::uint8_t> pt(round.state_bytes());
    std::vector<double> got;
    std::vector<double> want;
    for (int k = 0; k < 150; ++k) {
      round.fill_random_states(pt_rng, 1, pt.data());
      got.push_back(target.trace(pt.data(), key.data(), 2e-16, noise_a));
      want.push_back(oracle.trace(pt.data(), key.data(), 2e-16, noise_b));
    }
    EXPECT_EQ(differing(got, want), 0u);
    const std::size_t count = 70;
    std::vector<std::uint8_t> pts(count * round.state_bytes());
    round.fill_random_states(pt_rng, count, pts.data());
    std::vector<double> batch_got(count);
    std::vector<double> batch_want(count);
    target.trace_batch(pts.data(), count, key.data(), 0.0, noise_a,
                       batch_got.data());
    oracle.trace_batch(pts.data(), count, key.data(), 0.0, noise_b,
                       batch_want.data());
    EXPECT_EQ(differing(batch_got, batch_want), 0u);
  }
}

// A whole engine campaign (sharded, fresh state per shard) equals the
// oracle run shard by shard over the same counter-derived streams. The
// sampled campaign starts on a fresh engine with four workers, so their
// first shards race to build the shared time-resolved rows.
void expect_campaign_matches(LogicStyle style, bool sampled) {
  SCOPED_TRACE(std::string(to_string(style)) +
               (sampled ? " sampled" : " scalar"));
  const RoundSpec round = present_round(16, style);
  TraceEngine engine(round, kTech);
  CampaignOptions options;
  options.num_traces = 2500;
  options.shard_size = 128;
  options.key = round_key(round);
  options.noise_sigma = 1e-16;
  options.seed = 0x0AC1E;
  options.num_threads = 4;
  std::vector<double> got;
  const auto sink = [&](const std::uint8_t*, const double* data,
                        std::size_t count) {
    const std::size_t width = sampled ? engine.target().num_levels() : 1;
    got.insert(got.end(), data, data + count * width);
  };
  if (sampled) {
    engine.stream_sampled(options, sink);
  } else {
    engine.stream(options, sink);
  }
  ReferenceRound oracle(engine.target(), kTech);
  const std::size_t width = sampled ? oracle.num_levels() : 1;
  std::vector<double> want;
  for (std::size_t start = 0, s = 0; start < options.num_traces;
       start += options.shard_size, ++s) {
    const std::size_t count =
        std::min(options.shard_size, options.num_traces - start);
    std::vector<std::uint8_t> pts(count * round.state_bytes());
    Rng pt_rng(campaign_shard_seed(options.seed, s, 0));
    round.fill_random_states(pt_rng, count, pts.data());
    Rng noise(campaign_shard_seed(options.seed, s, 1));
    oracle.reset();
    std::vector<double> shard(count * width);
    if (sampled) {
      oracle.trace_batch_sampled(pts.data(), count, options.key.data(),
                                 options.noise_sigma, noise, shard.data());
    } else {
      oracle.trace_batch(pts.data(), count, options.key.data(),
                         options.noise_sigma, noise, shard.data());
    }
    want.insert(want.end(), shard.begin(), shard.end());
  }
  EXPECT_EQ(differing(got, want), 0u);
}

TEST(LeakageTableTest, EngineCampaignsMatchDirectSimulation) {
  for (LogicStyle style :
       {LogicStyle::kStaticCmos, LogicStyle::kSablEnhanced}) {
    expect_campaign_matches(style, false);
    expect_campaign_matches(style, true);
  }
}

// Distinct tables behind a round's instances.
std::size_t distinct_tables(const RoundTarget& target) {
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < target.round().num_sboxes(); ++i) {
    bool shared = false;
    for (std::size_t j = 0; j < i; ++j) {
      shared = shared || &target.leakage_table(j) == &target.leakage_table(i);
    }
    if (!shared) ++distinct;
  }
  return distinct;
}

TEST(LeakageTableTest, IdenticalInstancesShareOneTable) {
  const RoundTarget enhanced(present_round(16, LogicStyle::kSablEnhanced),
                             kTech);
  EXPECT_EQ(distinct_tables(enhanced), 1u);
  EXPECT_EQ(distinct_tables(
                RoundTarget(present_round(16, LogicStyle::kStaticCmos), kTech)),
            1u);
  // Every WDDL instance draws its own rail imbalance.
  EXPECT_EQ(distinct_tables(RoundTarget(
                present_round(16, LogicStyle::kWddlMismatched), kTech)),
            16u);
  RoundSpec mixed;
  mixed.sboxes = {present_spec(), des1_spec(), present_spec()};
  mixed.style = LogicStyle::kSablGenuine;
  EXPECT_EQ(distinct_tables(RoundTarget(mixed, kTech)), 2u);
  // Clones and with_lane_width variants share the tables instead of
  // rebuilding.
  const RoundTarget clone = enhanced.clone();
  EXPECT_EQ(&clone.leakage_table(3), &enhanced.leakage_table(0));
  const auto wide = enhanced.with_lane_width<Word128>();
  EXPECT_EQ(&wide.leakage_table(15), &enhanced.leakage_table(0));
}

TEST(LeakageTableTest, RowsCoverEveryInputState) {
  const RoundTarget cmos(single_sbox_round(present_spec(),
                                           LogicStyle::kStaticCmos),
                         kTech);
  const LeakageTable& pairs = cmos.leakage_table(0);
  EXPECT_TRUE(pairs.has_history());
  EXPECT_EQ(pairs.num_rows(), 16u + 256u);
  EXPECT_EQ(pairs.settled_energies().size(), 256u);
  EXPECT_EQ(pairs.row(0x3, 0xA), 16u + 0x3A);
  EXPECT_EQ(pairs.level_energies().size(),
            pairs.num_rows() * pairs.num_levels());
  const RoundTarget sabl(single_sbox_round(present_spec(),
                                           LogicStyle::kSablEnhanced),
                         kTech);
  const LeakageTable& inputs = sabl.leakage_table(0);
  EXPECT_FALSE(inputs.has_history());
  EXPECT_EQ(inputs.num_rows(), 16u);
  EXPECT_EQ(inputs.settled_energies().size(), 16u);
}


// FNV-1a 64 over the bit patterns of a table's energies(), then its
// level_energies().
std::uint64_t table_fingerprint(const LeakageTable& table) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto feed = [&](std::span<const double> values) {
    for (const double v : values) {
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
      for (int shift = 0; shift < 64; shift += 8) {
        hash ^= (bits >> shift) & 0xFFu;
        hash *= 0x100000001b3ull;
      }
    }
  };
  feed(table.energies());
  feed(table.level_energies());
  return hash;
}

// Every energy bit of every style's tables, pinned as constants. The
// direct-simulation cases above compare tables against the same batch
// simulators that build them, so only these fingerprints catch an energy
// model whose arithmetic moves. WDDL is pinned at two instance seeds
// (instances 0 and 1 of a round draw 0x3DD1 and 0x3DD2).
TEST(LeakageTableTest, TableBitsArePinned) {
  struct Pinned {
    const char* sbox;
    LogicStyle style;
    std::size_t instance;
    std::uint64_t fingerprint;
  };
  const Pinned pinned[] = {
      {"present", LogicStyle::kStaticCmos, 0, 0x65f4b93d9eb47080ull},
      {"present", LogicStyle::kSablGenuine, 0, 0xbe10e0b5dea73836ull},
      {"present", LogicStyle::kSablFullyConnected, 0, 0xd7ff14dc2dd21e25ull},
      {"present", LogicStyle::kSablEnhanced, 0, 0x68c171d9bf729e65ull},
      {"present", LogicStyle::kWddlBalanced, 0, 0xd653c510ca2a31a5ull},
      {"present", LogicStyle::kWddlBalanced, 1, 0xd653c510ca2a31a5ull},
      {"present", LogicStyle::kWddlMismatched, 0, 0x291e7179d180639bull},
      {"present", LogicStyle::kWddlMismatched, 1, 0xca3e558d4df53becull},
      {"des1", LogicStyle::kStaticCmos, 0, 0xcb7e9cc223f3d4b9ull},
      {"des1", LogicStyle::kSablGenuine, 0, 0xc9f796a42fb5f02eull},
      {"des1", LogicStyle::kSablFullyConnected, 0, 0xd38dfe5bef19f2a5ull},
      {"des1", LogicStyle::kSablEnhanced, 0, 0x0df81e9fd8b19925ull},
      {"des1", LogicStyle::kWddlBalanced, 0, 0x3697d03b11dc2a25ull},
      {"des1", LogicStyle::kWddlBalanced, 1, 0x3697d03b11dc2a25ull},
      {"des1", LogicStyle::kWddlMismatched, 0, 0xfcd440959e140081ull},
      {"des1", LogicStyle::kWddlMismatched, 1, 0x9171a7d389f0ac27ull},
      {"aes", LogicStyle::kStaticCmos, 0, 0xab76b7c7369f58bdull},
      {"aes", LogicStyle::kSablGenuine, 0, 0x6bc843aeb7741514ull},
      {"aes", LogicStyle::kSablFullyConnected, 0, 0x0180f296fcb8db25ull},
      {"aes", LogicStyle::kSablEnhanced, 0, 0x2ff66b6e0cd7c125ull},
      {"aes", LogicStyle::kWddlBalanced, 0, 0x61e4eea8d366a725ull},
      {"aes", LogicStyle::kWddlBalanced, 1, 0x61e4eea8d366a725ull},
      {"aes", LogicStyle::kWddlMismatched, 0, 0x573c048178fb59f2ull},
      {"aes", LogicStyle::kWddlMismatched, 1, 0x8ad52af4f5468d82ull},
  };
  const auto spec_named = [](const std::string& name) {
    return name == "present" ? present_spec()
           : name == "des1"  ? des1_spec()
                             : aes_spec();
  };
  for (const Pinned& p : pinned) {
    RoundSpec round = single_sbox_round(spec_named(p.sbox), p.style);
    round.sboxes.resize(p.instance + 1, round.sboxes[0]);
    const RoundTarget target(round, kTech);
    EXPECT_EQ(table_fingerprint(target.leakage_table(p.instance)),
              p.fingerprint)
        << p.sbox << " " << to_string(p.style) << " instance " << p.instance;
  }
}

}  // namespace
}  // namespace sable
