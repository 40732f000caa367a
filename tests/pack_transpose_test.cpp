// Property suite for the bit-transpose lane packing (switchsim/cycle_sim):
// pack_lane_words — 8×8 byte-block transposes for narrow assignments, full
// 64×64 Hacker's Delight transposes for wide ones, and the single-lane
// fast path — must be bit-identical to pack_lane_words_gather, the
// independently-simple per-bit reference, at every lane width, variable
// count and ragged lane count. Wide words are plain chunk storage, so
// every width runs on every CPU; the dispatch tier alone picks the
// transpose body. Also covers the lane-word helpers of util/lane_word.hpp:
// the chunk round trip, lane_mask (including its abort on out-of-range
// counts) and the masked per-lane walks.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "switchsim/cycle_sim.hpp"
#include "util/cpu_dispatch.hpp"
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
TYPED_TEST_SUITE(PackTransposeTest, LaneWordTypes);

TYPED_TEST(PackTransposeTest, MatchesGatherAcrossVarsCountsAndRandomBits) {
  using W = TypeParam;
  Rng rng(0x7249);
  // 1 exercises the single-lane fast path only via count==1; 4/5/8 the
  // 8×8 byte-block path; 9/17/33/64 the full 64×64 transpose path.
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

// The vectorized transpose kernels — AVX2 delta-swap, AVX-512 masked
// shifts, BW vpmovb2m and GFNI vgf2p8affineqb where the CPU has them —
// are picked per pack call from the active dispatch tier, so capping the
// tier on one machine walks every kernel this binary can run. Each tier
// is only a faster route to the same transpose: words packed under any
// cap must be bit-identical to the portable tier's, for both the u64 wide
// path and the byte-source narrow path.
TYPED_TEST(PackTransposeTest, DispatchTiersPackBitIdenticalWords) {
  using W = TypeParam;
  Rng rng(0x71E5);
  // 4/8 drive the byte-plane kernels, 17/64 the 64×64 transpose kernels.
  for (std::size_t vars : {std::size_t{4}, std::size_t{8}, std::size_t{17},
                           std::size_t{64}}) {
    for (std::size_t count : interesting_counts<W>()) {
      std::vector<std::uint64_t> assignments(count);
      std::vector<std::uint8_t> bytes(count);
      for (std::size_t lane = 0; lane < count; ++lane) {
        assignments[lane] = rng.next();
        bytes[lane] = static_cast<std::uint8_t>(assignments[lane]);
      }
      std::vector<W> portable_words(vars), portable_bytes(vars);
      {
        ScopedDispatchTierCap cap(DispatchTier::kPortable);
        pack_lane_words(assignments.data(), count, portable_words);
        if (vars <= 8) pack_lane_words(bytes.data(), count, portable_bytes);
      }
      // The portable tier itself must match the per-bit gather reference…
      std::vector<W> ref(vars);
      pack_lane_words_gather(assignments.data(), count, ref);
      expect_words_equal(portable_words, ref, "portable tier", count);
      // …and every higher tier must match the portable tier, bit for bit.
      for (DispatchTier tier : {DispatchTier::kAvx2, DispatchTier::kAvx512}) {
        ScopedDispatchTierCap cap(tier);
        std::vector<W> got(vars);
        pack_lane_words(assignments.data(), count, got);
        expect_words_equal(got, portable_words, to_string(tier), count);
        if (vars <= 8) {
          std::vector<W> got_bytes(vars);
          pack_lane_words(bytes.data(), count, got_bytes);
          expect_words_equal(got_bytes, portable_bytes, to_string(tier),
                             count);
        }
      }
      if (::testing::Test::HasFailure()) return;  // one counterexample
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
      std::vector<W> ref(vars);
      pack_lane_words_gather(pattern->data(), count, ref);
      for (DispatchTier tier : {DispatchTier::kPortable, DispatchTier::kAvx2,
                                DispatchTier::kAvx512}) {
        ScopedDispatchTierCap cap(tier);
        std::vector<W> got(vars);
        pack_lane_words(pattern->data(), count, got);
        expect_words_equal(got, ref, to_string(tier), count);
      }
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
