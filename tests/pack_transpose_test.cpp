// Property suite for the bit-transpose lane packing (switchsim/cycle_sim):
// pack_lane_words — a portable 64×64 Hacker's Delight transpose per chunk
// for u64 sources, 8×8 byte-block transposes for byte sources, and the
// single-lane fast path — must be bit-identical to pack_lane_words_gather,
// the independently-simple per-bit reference, at every lane width,
// variable count and ragged lane count. Word128 is plain chunk storage,
// so every width runs on every CPU. bit_transpose_blocks, the codec's
// transpose through the same 64×64 body, is checked against a per-bit
// transpose. Also covers the lane-word helpers of
// util/lane_word.hpp: the chunk round trip, lane_mask (including its abort
// on out-of-range counts) and the masked per-lane walks.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "switchsim/cycle_sim.hpp"
#include "util/lane_word.hpp"
#include "util/rng.hpp"

namespace sable {
namespace {

// Ragged and aligned lane counts worth probing, clipped to the word:
// single lane, partial / exact / overflowing first chunk, partial second
// chunk, full word.
template <typename W>
std::vector<std::size_t> interesting_counts() {
  constexpr std::size_t kLanes = LaneTraits<W>::kLanes;
  std::vector<std::size_t> counts;
  for (std::size_t c : {std::size_t{1}, std::size_t{7}, std::size_t{63},
                        std::size_t{64}, std::size_t{65}, std::size_t{127},
                        std::size_t{128}, std::size_t{129}, kLanes - 1,
                        kLanes}) {
    if (c >= 1 && c <= kLanes &&
        (counts.empty() || counts.back() != c)) {
      counts.push_back(c);
    }
  }
  return counts;
}

template <typename W>
void expect_words_equal(const std::vector<W>& got, const std::vector<W>& ref,
                        const char* what, std::size_t count) {
  using T = LaneTraits<W>;
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t v = 0; v < ref.size(); ++v) {
    std::uint64_t g[T::kChunks], r[T::kChunks];
    lane_chunks(got[v], g);
    lane_chunks(ref[v], r);
    for (std::size_t j = 0; j < T::kChunks; ++j) {
      EXPECT_EQ(g[j], r[j]) << what << " count " << count << " var " << v
                            << " chunk " << j;
    }
  }
}

template <typename W>
struct PackTransposeTest : ::testing::Test {};

using LaneWordTypes = ::testing::Types<std::uint64_t, Word128>;
TYPED_TEST_SUITE(PackTransposeTest, LaneWordTypes);

TYPED_TEST(PackTransposeTest, MatchesGatherAcrossVarsCountsAndRandomBits) {
  using W = TypeParam;
  Rng rng(0x7249);
  // count==1 exercises the single-lane fast path; every other count the
  // 64×64 transpose, with narrow (1..8) and wide (9..64) variable counts.
  for (std::size_t vars : {std::size_t{1}, std::size_t{4}, std::size_t{5},
                           std::size_t{8}, std::size_t{9}, std::size_t{17},
                           std::size_t{33}, std::size_t{64}}) {
    for (std::size_t count : interesting_counts<W>()) {
      for (int round = 0; round < 4; ++round) {
        std::vector<std::uint64_t> assignments(count);
        for (auto& a : assignments) a = rng.next();
        std::vector<W> got(vars), ref(vars);
        pack_lane_words(assignments.data(), count, got);
        pack_lane_words_gather(assignments.data(), count, ref);
        expect_words_equal(got, ref, "u64 source", count);
        if (::testing::Test::HasFailure()) return;  // one counterexample
      }
    }
  }
}

TYPED_TEST(PackTransposeTest, ByteSourceMatchesWordSourceForNarrowVars) {
  using W = TypeParam;
  Rng rng(0xB17E);
  for (std::size_t vars :
       {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    for (std::size_t count : interesting_counts<W>()) {
      std::vector<std::uint64_t> assignments(count);
      std::vector<std::uint8_t> bytes(count);
      for (std::size_t lane = 0; lane < count; ++lane) {
        bytes[lane] = static_cast<std::uint8_t>(rng.next());
        assignments[lane] = bytes[lane];
      }
      std::vector<W> from_bytes(vars), from_words(vars);
      pack_lane_words(bytes.data(), count, from_bytes);
      pack_lane_words(assignments.data(), count, from_words);
      expect_words_equal(from_bytes, from_words, "byte source", count);
    }
  }
}

// Dense corner patterns the random sweep is unlikely to hit: all-ones
// (every transpose mask line saturated) and single-bit diagonals (each bit
// must land in exactly one output position).
TYPED_TEST(PackTransposeTest, SaturatedAndDiagonalPatterns) {
  using W = TypeParam;
  using T = LaneTraits<W>;
  const std::size_t count = T::kLanes;
  std::vector<std::uint64_t> ones(count, ~std::uint64_t{0});
  std::vector<std::uint64_t> diagonal(count);
  for (std::size_t lane = 0; lane < count; ++lane) {
    diagonal[lane] = std::uint64_t{1} << (lane % 64);
  }
  for (const auto* pattern : {&ones, &diagonal}) {
    for (std::size_t vars : {std::size_t{8}, std::size_t{64}}) {
      std::vector<W> ref(vars), got(vars);
      pack_lane_words_gather(pattern->data(), count, ref);
      pack_lane_words(pattern->data(), count, got);
      expect_words_equal(got, ref, "pattern", count);
    }
  }
}

TYPED_TEST(PackTransposeTest, ChunkRoundTrip) {
  using W = TypeParam;
  using T = LaneTraits<W>;
  static_assert(T::kLanes == 64 * T::kChunks);
  Rng rng(0x1A9E);
  for (int round = 0; round < 16; ++round) {
    std::uint64_t a[T::kChunks], out[T::kChunks];
    for (std::size_t j = 0; j < T::kChunks; ++j) a[j] = rng.next();
    lane_chunks(lane_from_chunks<W>(a), out);
    for (std::size_t j = 0; j < T::kChunks; ++j) EXPECT_EQ(out[j], a[j]);
  }
}

// An independent per-lane oracle (not the gather): lane L of word v is bit
// v of assignment L, and lanes past the count are clear.
TYPED_TEST(PackTransposeTest, PackLaneWordsTransposesEveryLane) {
  using W = TypeParam;
  using T = LaneTraits<W>;
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

// bit_transpose_blocks is the corpus codec's transpose. It must match a
// per-bit transpose (bit c of block row r → bit r of block row c), and
// it must be its own inverse.
TEST(BitTransposeBlocksTest, MatchesPerBitTransposeAndInverts) {
  Rng rng(0x71E5);
  for (std::size_t blocks : {std::size_t{1}, std::size_t{3}}) {
    const std::size_t n = 64 * blocks;
    std::vector<std::uint64_t> random(n), ones(n, ~std::uint64_t{0}),
        diagonal(n);
    for (std::size_t i = 0; i < n; ++i) {
      random[i] = rng.next();
      // A shifted diagonal per block, so no block is its own transpose.
      diagonal[i] = std::uint64_t{1} << ((i + 5 * (i / 64)) % 64);
    }
    for (const auto* input : {&random, &ones, &diagonal}) {
      std::vector<std::uint64_t> expected(n, 0);
      for (std::size_t b = 0; b < blocks; ++b) {
        for (std::size_t r = 0; r < 64; ++r) {
          for (std::size_t c = 0; c < 64; ++c) {
            const std::uint64_t bit = ((*input)[64 * b + r] >> c) & 1u;
            expected[64 * b + c] |= bit << r;
          }
        }
      }
      std::vector<std::uint64_t> words = *input;
      bit_transpose_blocks(words.data(), blocks);
      EXPECT_EQ(words, expected) << "blocks " << blocks;
      bit_transpose_blocks(words.data(), blocks);
      EXPECT_EQ(words, *input) << "twice, blocks " << blocks;
    }
  }
}

TEST(LaneWordTest, LaneMaskSetsExactlyTheFirstCountLanes) {
  for (std::size_t count : {std::size_t{1}, std::size_t{2}, std::size_t{9},
                            std::size_t{63}, std::size_t{64}}) {
    const std::uint64_t mask = lane_mask(count);
    EXPECT_EQ(static_cast<std::size_t>(std::popcount(mask)), count);
    // Set lanes must be the prefix.
    const std::uint64_t expected =
        count >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << count) - 1;
    EXPECT_EQ(mask, expected) << "count " << count;
  }
}

TEST(LaneWordTest, FillSelectedWritesExactlyTheSelectedLanes) {
  Rng rng(0x1A9E);
  for (int round = 0; round < 16; ++round) {
    const std::uint64_t mask = round == 0 ? ~std::uint64_t{0} : rng.next();
    double energy[64] = {};
    lane_fill_selected(mask, 1.0, energy);
    for (std::size_t lane = 0; lane < 64; ++lane) {
      EXPECT_EQ(energy[lane], static_cast<double>((mask >> lane) & 1u))
          << "lane " << lane;
    }
  }
}

// lane_mask is the single source of tail-batch masks; a count outside
// [1, 64] means an upstream kernel mis-sliced a batch, which must abort
// rather than silently simulate phantom traces.
TEST(LaneMaskDeathTest, AbortsOnOutOfRangeCounts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(lane_mask(0), "lane_mask");
  EXPECT_DEATH(lane_mask(65), "lane_mask");
}

}  // namespace
}  // namespace sable
