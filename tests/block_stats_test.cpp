// Block-factored accumulation (dpa/block_stats.hpp + the add_block
// paths in dpa/streaming.hpp): the three contracts the pipeline leans
// on.
//
//  1. Equivalence — the block-factored path over a ragged block split
//     scores within 1e-12 of the textbook two-pass formulations
//     (tests/reference_attacks.hpp), for CPA and DoM (4- and 8-bit
//     sboxes), MultiCpa and second-order CPA (4- and 8-bit sboxes).
//  2. Cross-tier bit-identity — the same blocks produce byte-identical
//     serialized state under every dispatch tier the build and the
//     machine support, and the raw kernels agree bitwise output-for-
//     output. This is what lets a corpus recorded on an AVX-512 box
//     resume on a portable one.
//  3. Persistence shape — save after K blocks, load, feed the
//     remaining block (or merge a partial holding it): the re-saved
//     state is byte-identical to straight-through accumulation. This
//     is exactly the checkpoint/resume and merge_partials shape.
//
// Plus the hoisted validation contract: an out-of-range plaintext
// anywhere in a block throws InvalidArgument before any state mutates.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "crypto/sboxes.hpp"
#include "dpa/block_stats.hpp"
#include "dpa/second_order.hpp"
#include "dpa/streaming.hpp"
#include "io/serial.hpp"
#include "reference_attacks.hpp"
#include "util/cpu_dispatch.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sable {
namespace {

// Deterministic trace material: plaintexts below `num_pts`, rows of
// `width` samples at campaign-realistic magnitude (~1e-13 J) so the
// test exercises the same cancellation regime the shift-by-first-sample
// trick exists for.
struct Traces {
  std::vector<std::uint8_t> pts;
  std::vector<double> rows;  // [trace * width + column]
  std::size_t width;

  // The same traces in the oracles' containers.
  TraceSet scalar() const {
    TraceSet out;
    out.append(pts.data(), rows.data(), pts.size());
    return out;
  }
  MultiTraceSet multi() const {
    MultiTraceSet out;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      out.add(pts[i], rows.data() + i * width, width);
    }
    return out;
  }
};

Traces make_traces(std::size_t count, std::size_t num_pts,
                     std::size_t width, std::uint64_t seed) {
  Traces t;
  t.width = width;
  t.pts.resize(count);
  t.rows.resize(count * width);
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    t.pts[i] = static_cast<std::uint8_t>(rng.below(num_pts));
    for (std::size_t l = 0; l < width; ++l) {
      // A large common-mode offset plus a tiny per-trace wiggle: the
      // worst case for raw-moment cancellation.
      t.rows[i * width + l] = 1e-13 + 1e-15 * rng.uniform();
    }
  }
  return t;
}

// Ragged block split (non-power-of-2, uneven) — the engine's shard
// layout is the block layout, and tails are the norm.
constexpr std::size_t kBlockSizes[] = {448, 448, 131};
constexpr std::size_t kTotal = 448 + 448 + 131;

// Feeds traces [off, off + n) of `t` as one block. The second-order
// accumulator takes the row width per block; the others fix it up front.
template <typename Acc>
void add_rows(Acc& acc, const Traces& t, std::size_t off, std::size_t n) {
  acc.add_block(t.pts.data() + off, t.rows.data() + off * t.width, n);
}
void add_rows(StreamingSecondOrderCpa& acc, const Traces& t, std::size_t off,
              std::size_t n) {
  acc.add_block(t.pts.data() + off, t.rows.data() + off * t.width, n,
                t.width);
}

// Feeds all of `t` in the ragged kBlockSizes split.
template <typename Acc>
void add_all_blocks(Acc& acc, const Traces& t) {
  std::size_t off = 0;
  for (const std::size_t n : kBlockSizes) {
    add_rows(acc, t, off, n);
    off += n;
  }
  ASSERT_EQ(off, t.pts.size());
}

void expect_near_scores(const std::vector<double>& block,
                        const std::vector<double>& reference,
                        double tolerance = 1e-12) {
  ASSERT_EQ(block.size(), reference.size());
  for (std::size_t g = 0; g < block.size(); ++g) {
    EXPECT_NEAR(block[g], reference[g], tolerance) << "guess " << g;
  }
}

void expect_same_bits(const std::vector<double>& a,
                      const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t g = 0; g < a.size(); ++g) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[g]),
              std::bit_cast<std::uint64_t>(b[g]))
        << "guess " << g;
  }
}

std::vector<std::uint8_t> saved_bytes(const auto& acc) {
  ByteWriter writer;
  acc.save(writer);
  return writer.buffer();
}

// ---- equivalence: block path vs the two-pass oracles ----------------------

TEST(BlockStatsTest, CpaBlockPathMatchesTwoPass4Bit) {
  const Traces t = make_traces(kTotal, 16, 1, 0xB10C);
  StreamingCpa block(present_spec(), PowerModel::kHammingWeight);
  add_all_blocks(block, t);
  EXPECT_EQ(block.count(), kTotal);
  expect_near_scores(block.result().score,
                     reference_cpa_scores(t.scalar(), present_spec(),
                                          PowerModel::kHammingWeight, 0));
}

TEST(BlockStatsTest, CpaBlockPathMatchesTwoPass8Bit) {
  // 8-bit sbox: 256 plaintext classes over ~1000 traces — sparse
  // histogram rows, many zero-count classes, the skip branch exercised.
  const Traces t = make_traces(kTotal, 256, 1, 0xAE5);
  StreamingCpa block(aes_spec(), PowerModel::kHammingWeight);
  add_all_blocks(block, t);
  expect_near_scores(block.result().score,
                     reference_cpa_scores(t.scalar(), aes_spec(),
                                          PowerModel::kHammingWeight, 0));
}

TEST(BlockStatsTest, DomBlockPathMatchesTwoPass) {
  const Traces t = make_traces(kTotal, 16, 1, 0xD0A1);
  StreamingDom block(present_spec(), 2);
  add_all_blocks(block, t);
  EXPECT_EQ(block.count(), kTotal);
  // A DoM score is a difference of ~1e-13 J partition means, so the
  // budget is 1e-12 relative to those means.
  expect_near_scores(block.result().score,
                     reference_dom_scores(t.scalar(), present_spec(), 2),
                     1e-12 * 1e-13);
}

TEST(BlockStatsTest, DomBlockPathMatchesTwoPass8Bit) {
  // 8-bit sbox: sparse histogram rows, as in the CPA case. The partition
  // sums are built from sums shifted by each block's first sample, with
  // cnt·shift added back per partition.
  const Traces t = make_traces(kTotal, 256, 1, 0xD0A8);
  StreamingDom block(aes_spec(), 5);
  add_all_blocks(block, t);
  EXPECT_EQ(block.count(), kTotal);
  expect_near_scores(block.result().score,
                     reference_dom_scores(t.scalar(), aes_spec(), 5),
                     1e-12 * 1e-13);
}

TEST(BlockStatsTest, MultiCpaBlockPathMatchesTwoPass) {
  constexpr std::size_t kWidth = 5;
  const Traces t = make_traces(kTotal, 16, kWidth, 0x3C0A);
  StreamingMultiCpa block(present_spec(), PowerModel::kHammingWeight,
                          kWidth);
  add_all_blocks(block, t);
  EXPECT_EQ(block.count(), kTotal);
  expect_near_scores(block.result().combined.score,
                     reference_multi_cpa_scores(t.multi(), present_spec(),
                                                PowerModel::kHammingWeight));
}

// Second-order: widths 2 (a single level pair) and 6 (the SABL-enhanced
// round's level count, 15 pairs), scores and the winning pair — over the
// ragged split and over one block of all kTotal traces, which spans
// several of the accumulator's counting-sort chunks.
void check_second_order_block_path(const SboxSpec& spec, std::size_t num_pts,
                                   std::uint64_t seed) {
  for (const std::size_t width : {std::size_t{2}, std::size_t{6}}) {
    SCOPED_TRACE(width);
    const Traces t = make_traces(kTotal, num_pts, width, seed + width);
    const SecondOrderAttackResult want =
        reference_second_order(t.multi(), spec, PowerModel::kHammingWeight);
    StreamingSecondOrderCpa ragged(spec, PowerModel::kHammingWeight);
    add_all_blocks(ragged, t);
    StreamingSecondOrderCpa whole(spec, PowerModel::kHammingWeight);
    add_rows(whole, t, 0, kTotal);
    for (const StreamingSecondOrderCpa* block : {&ragged, &whole}) {
      EXPECT_EQ(block->count(), kTotal);
      const SecondOrderAttackResult got = block->result();
      expect_near_scores(got.combined.score, want.combined.score);
      EXPECT_EQ(got.best_pair_first, want.best_pair_first);
      EXPECT_EQ(got.best_pair_second, want.best_pair_second);
    }
  }
}

TEST(BlockStatsTest, SecondOrderBlockPathMatchesTwoPass4Bit) {
  check_second_order_block_path(present_spec(), 16, 0x50C4);
}

TEST(BlockStatsTest, SecondOrderBlockPathMatchesTwoPass8Bit) {
  // P = G = 256 over ~1000 traces: most plaintext rows of a block are
  // empty, so the contraction's skip branch carries the block.
  check_second_order_block_path(aes_spec(), 256, 0x50C8);
}

// ---- cross-tier bit-identity ----------------------------------------------

std::vector<DispatchTier> testable_tiers() {
  std::vector<DispatchTier> tiers = {DispatchTier::kPortable};
  if (active_tier() >= DispatchTier::kAvx2) tiers.push_back(DispatchTier::kAvx2);
  if (active_tier() >= DispatchTier::kAvx512) {
    tiers.push_back(DispatchTier::kAvx512);
  }
  return tiers;
}

TEST(BlockStatsTest, CpaBitIdenticalAcrossDispatchTiers) {
  const Traces t = make_traces(kTotal, 16, 1, 0x71E5);
  std::vector<std::uint8_t> reference;
  for (const DispatchTier tier : testable_tiers()) {
    ScopedDispatchTierCap cap(tier);
    StreamingCpa acc(present_spec(), PowerModel::kHammingWeight);
    add_all_blocks(acc, t);
    const std::vector<std::uint8_t> bytes = saved_bytes(acc);
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "tier " << static_cast<int>(tier);
    }
  }
}

TEST(BlockStatsTest, DomBitIdenticalAcrossDispatchTiers) {
  const Traces t = make_traces(kTotal, 16, 1, 0x71E8);
  std::vector<std::uint8_t> reference;
  for (const DispatchTier tier : testable_tiers()) {
    ScopedDispatchTierCap cap(tier);
    StreamingDom acc(present_spec(), 2);
    add_all_blocks(acc, t);
    const std::vector<std::uint8_t> bytes = saved_bytes(acc);
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "tier " << static_cast<int>(tier);
    }
  }
}

TEST(BlockStatsTest, MultiCpaBitIdenticalAcrossDispatchTiers) {
  constexpr std::size_t kWidth = 7;
  const Traces t = make_traces(kTotal, 16, kWidth, 0x71E6);
  std::vector<std::uint8_t> reference;
  for (const DispatchTier tier : testable_tiers()) {
    ScopedDispatchTierCap cap(tier);
    StreamingMultiCpa acc(present_spec(), PowerModel::kHammingWeight, kWidth);
    add_all_blocks(acc, t);
    const std::vector<std::uint8_t> bytes = saved_bytes(acc);
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "tier " << static_cast<int>(tier);
    }
  }
}

TEST(BlockStatsTest, SecondOrderBitIdenticalAcrossDispatchTiers) {
  constexpr std::size_t kWidth = 6;
  const Traces t = make_traces(kTotal, 16, kWidth, 0x71E7);
  std::vector<std::uint8_t> reference;
  for (const DispatchTier tier : testable_tiers()) {
    ScopedDispatchTierCap cap(tier);
    StreamingSecondOrderCpa acc(present_spec(), PowerModel::kHammingWeight);
    add_all_blocks(acc, t);
    const std::vector<std::uint8_t> bytes = saved_bytes(acc);
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "tier " << static_cast<int>(tier);
    }
  }
}

TEST(BlockStatsTest, RawKernelsBitIdenticalAcrossDispatchTiers) {
  // Below the accumulators: the dispatched kernel table itself. Every
  // tier's histogram and contraction outputs must agree bitwise — the
  // instantiations differ only in codegen, never in arithmetic shape.
  constexpr std::size_t kCount = 700;
  constexpr std::size_t kPts = 16;
  constexpr std::size_t kGuesses = 16;
  constexpr std::size_t kWidth = 3;
  const Traces t = make_traces(kCount, kPts, kWidth, 0xFACE);
  std::vector<double> pred(kPts * kGuesses);
  std::vector<std::uint8_t> pred_bit(kPts * kGuesses);
  Rng rng(0xBEEF);
  for (std::size_t i = 0; i < pred.size(); ++i) {
    pred[i] = static_cast<double>(rng.below(9));
    pred_bit[i] = static_cast<std::uint8_t>(rng.below(2));
  }
  std::vector<double> shifts(kWidth, 1e-13);

  struct Outputs {
    std::vector<std::uint64_t> counts;
    std::vector<double> sums, sum_sq, sum_h, sum_h2, r, sum0, sum1;
    std::vector<std::uint64_t> cnt0, cnt1;
  };
  auto run = [&](DispatchTier tier) {
    const BlockStatKernels& k = block_stat_kernels(tier);
    Outputs o;
    o.counts.resize(detail::kBlockPts);
    o.sums.resize(detail::kBlockPts * kWidth);
    o.sum_sq.resize(kWidth);
    o.sum_h.resize(kGuesses);
    o.sum_h2.resize(kGuesses);
    o.r.resize(kWidth * kGuesses);
    o.sum0.resize(kGuesses);
    o.sum1.resize(kGuesses);
    o.cnt0.resize(kGuesses);
    o.cnt1.resize(kGuesses);
    k.histogram_sampled(t.pts.data(), t.rows.data(), kCount, kWidth,
                        shifts.data(), o.counts.data(), o.sums.data(),
                        o.sum_sq.data());
    k.contract_counts(pred.data(), o.counts.data(), kPts, kGuesses,
                      o.sum_h.data(), o.sum_h2.data());
    k.contract_sums(pred.data(), o.sums.data(), o.counts.data(), kPts,
                    kWidth, kGuesses, o.r.data());
    k.contract_dom(pred_bit.data(), o.counts.data(), o.sums.data(), kPts,
                   kGuesses, o.sum0.data(), o.sum1.data(), o.cnt0.data(),
                   o.cnt1.data());
    return o;
  };

  const Outputs ref = run(DispatchTier::kPortable);
  for (const DispatchTier tier : testable_tiers()) {
    const Outputs got = run(tier);
    EXPECT_EQ(got.counts, ref.counts) << "tier " << static_cast<int>(tier);
    EXPECT_EQ(got.cnt0, ref.cnt0);
    EXPECT_EQ(got.cnt1, ref.cnt1);
    expect_same_bits(got.sums, ref.sums);
    expect_same_bits(got.sum_sq, ref.sum_sq);
    expect_same_bits(got.sum_h, ref.sum_h);
    expect_same_bits(got.sum_h2, ref.sum_h2);
    expect_same_bits(got.r, ref.r);
    expect_same_bits(got.sum0, ref.sum0);
    expect_same_bits(got.sum1, ref.sum1);
  }
}

// ---- persistence: save -> load -> accumulate-more / merge -----------------
//
// The checkpoint/resume shape: an accumulator saved after blocks 0..1,
// loaded into a fresh process, fed block 2 (resume) OR merged with a
// partial that only ever saw block 2 (merge_partials), must re-save
// byte-identically to one that consumed all three blocks in sequence.
// That works because a single-block accumulator's state IS the block's
// converted Welford statistics, and merge() routes through the same
// fold as add_block.

template <typename Acc, typename Make>
void check_persistence_shape(const Traces& t, const Make& make) {
  // Straight-through: all blocks, one accumulator.
  Acc straight = make();
  add_all_blocks(straight, t);
  const std::vector<std::uint8_t> want = saved_bytes(straight);

  // Checkpoint after the first two blocks.
  Acc partial = make();
  std::size_t off = 0;
  for (std::size_t b = 0; b < 2; ++b) {
    add_rows(partial, t, off, kBlockSizes[b]);
    off += kBlockSizes[b];
  }
  const std::vector<std::uint8_t> checkpoint = saved_bytes(partial);

  // Resume path: load the checkpoint, feed the remaining block.
  Acc resumed = make();
  {
    ByteReader reader(checkpoint.data(), checkpoint.size(), "mem");
    resumed.load(reader);
    EXPECT_EQ(reader.remaining(), 0u);
  }
  add_rows(resumed, t, off, kBlockSizes[2]);
  EXPECT_EQ(saved_bytes(resumed), want) << "resume path diverged";

  // Merge path: a second worker only ever saw block 2; fold its state
  // into the loaded checkpoint (merge_partials in miniature).
  Acc tail = make();
  add_rows(tail, t, off, kBlockSizes[2]);
  Acc merged = make();
  {
    ByteReader reader(checkpoint.data(), checkpoint.size(), "mem");
    merged.load(reader);
  }
  merged.merge(tail);
  EXPECT_EQ(saved_bytes(merged), want) << "merge path diverged";
}

TEST(BlockStatsTest, CpaSaveLoadAccumulateMergeMatchesStraightThrough) {
  const Traces t = make_traces(kTotal, 16, 1, 0x5A7E);
  check_persistence_shape<StreamingCpa>(t, [] {
    return StreamingCpa(present_spec(), PowerModel::kHammingWeight);
  });
}

TEST(BlockStatsTest, DomSaveLoadAccumulateMergeMatchesStraightThrough) {
  const Traces t = make_traces(kTotal, 16, 1, 0x5A7F);
  check_persistence_shape<StreamingDom>(
      t, [] { return StreamingDom(present_spec(), 1); });
}

TEST(BlockStatsTest, MultiCpaSaveLoadAccumulateMergeMatchesStraightThrough) {
  constexpr std::size_t kWidth = 4;
  const Traces t = make_traces(kTotal, 16, kWidth, 0x5A80);
  check_persistence_shape<StreamingMultiCpa>(t, [] {
    return StreamingMultiCpa(present_spec(), PowerModel::kHammingWeight,
                             kWidth);
  });
}

TEST(BlockStatsTest,
     SecondOrderSaveLoadAccumulateMergeMatchesStraightThrough) {
  const Traces t = make_traces(kTotal, 16, 6, 0x5A81);
  check_persistence_shape<StreamingSecondOrderCpa>(t, [] {
    return StreamingSecondOrderCpa(present_spec(), PowerModel::kHammingWeight);
  });
}

// ---- hoisted validation ---------------------------------------------------

TEST(BlockStatsTest, OutOfRangePlaintextThrowsBeforeMutating) {
  // Validation happens once per block, after the histogram pass but
  // before any statistic folds in: a bad plaintext anywhere in the
  // block throws and leaves the accumulator untouched.
  Traces t = make_traces(64, 16, 1, 0xBAD);
  t.pts[37] = 200;  // >= present's 16 plaintext classes

  StreamingCpa cpa(present_spec(), PowerModel::kHammingWeight);
  EXPECT_THROW(cpa.add_block(t.pts.data(), t.rows.data(), t.pts.size()),
               InvalidArgument);
  EXPECT_EQ(cpa.count(), 0u);

  StreamingDom dom(present_spec(), 0);
  EXPECT_THROW(dom.add_block(t.pts.data(), t.rows.data(), t.pts.size()),
               InvalidArgument);
  EXPECT_EQ(dom.count(), 0u);

  StreamingMultiCpa multi(present_spec(), PowerModel::kHammingWeight, 1);
  EXPECT_THROW(multi.add_block(t.pts.data(), t.rows.data(), t.pts.size()),
               InvalidArgument);
  EXPECT_EQ(multi.count(), 0u);

  // Second-order fixes its row width lazily from the first block; a
  // rejected block must not fix it either, so a valid block of another
  // width is still accepted afterwards.
  Traces rows2 = make_traces(64, 16, 2, 0xBAD);
  rows2.pts[37] = 200;
  StreamingSecondOrderCpa second(present_spec(), PowerModel::kHammingWeight);
  EXPECT_THROW(second.add_block(rows2.pts.data(), rows2.rows.data(),
                                rows2.pts.size(), rows2.width),
               InvalidArgument);
  EXPECT_EQ(second.count(), 0u);
  EXPECT_EQ(second.width(), 0u);
  const Traces rows3 = make_traces(64, 16, 3, 0x600D);
  second.add_block(rows3.pts.data(), rows3.rows.data(), rows3.pts.size(),
                   rows3.width);
  EXPECT_EQ(second.count(), 64u);
  EXPECT_EQ(second.width(), 3u);
}

}  // namespace
}  // namespace sable
