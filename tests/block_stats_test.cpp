// Block-factored accumulation (dpa/block_stats.hpp + the add_block
// paths in dpa/streaming.hpp): the three contracts the pipeline leans
// on.
//
//  1. Equivalence — the block-factored path over a ragged block split
//     scores within 1e-12 of the textbook two-pass formulations
//     (tests/reference_attacks.hpp), for CPA and DoM (4- and 8-bit
//     sboxes), MultiCpa and second-order CPA (4- and 8-bit sboxes).
//  2. Summation order — each raw kernel agrees bitwise with a plain
//     loop per output element in the order dpa/block_stats.hpp
//     documents, so its results cannot drift with the compiler's
//     vectorization choices.
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
#include <limits>
#include <utility>
#include <vector>

#include "crypto/leakage.hpp"
#include "crypto/sboxes.hpp"
#include "dpa/block_stats.hpp"
#include "dpa/second_order.hpp"
#include "dpa/streaming.hpp"
#include "io/serial.hpp"
#include "reference_attacks.hpp"
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
    out.plaintexts = pts;
    out.samples.assign(rows.begin(), rows.begin() + pts.size());
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
  expect_near_scores(block.result().combined.score,
                     reference_cpa_scores(t.scalar(), present_spec(),
                                          PowerModel::kHammingWeight, 0));
}

TEST(BlockStatsTest, CpaBlockPathMatchesTwoPass8Bit) {
  // 8-bit sbox: 256 plaintext classes over ~1000 traces — sparse
  // histogram rows, many zero-count classes, the skip branch exercised.
  const Traces t = make_traces(kTotal, 256, 1, 0xAE5);
  StreamingCpa block(aes_spec(), PowerModel::kHammingWeight);
  add_all_blocks(block, t);
  expect_near_scores(block.result().combined.score,
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
  StreamingCpa block = StreamingCpa::time_resolved(
      present_spec(), PowerModel::kHammingWeight, kWidth);
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

// ---- second-order block pass vs a scalar transcription --------------------

// StreamingSecondOrderCpa's block pass (dpa/second_order.cpp) written as
// plain scalar loops: the same 512-trace counting-sort chunks, and each
// even/odd pair of partial sums as two doubles, with an odd run's last
// trace on the even one. A fresh accumulator fed one block holds exactly
// that block's sums, so this returns what its save() must write after
// `header` (the accumulator's own tagged configuration prefix). Counts
// the odd and even (>= 2) plaintext runs it summed into `odd_runs` and
// `even_runs`.
std::vector<std::uint8_t> scalar_second_order_state(
    const SboxSpec& spec, const std::vector<std::uint8_t>& header,
    const std::uint8_t* pts, const double* rows, std::size_t count,
    std::size_t L, std::size_t& odd_runs, std::size_t& even_runs) {
  constexpr std::size_t kSortChunk = 512;
  const std::size_t G = std::size_t{1} << spec.in_bits;
  const std::size_t P = G;
  const std::size_t pairs = L * (L - 1) / 2;
  const std::vector<double> table =
      prediction_table(spec, PowerModel::kHammingWeight, 0);
  std::vector<std::uint64_t> counts(detail::kBlockPts, 0);
  std::vector<double> mean_x(L, 0.0), mean_h(G, 0.0), m2_h(G, 0.0);
  std::vector<double> c2(L * L, 0.0), c_xh(L * G), m3_ijh(pairs * G);
  std::vector<double> m3_iij(pairs, 0.0), m3_ijj(pairs, 0.0), m4(pairs, 0.0);
  std::vector<double> dh(P * G, 0.0), s1(P * L, 0.0), s2(P * pairs, 0.0);
  for (std::size_t t = 0; t < count; ++t) {
    ++counts[pts[t]];
    for (std::size_t i = 0; i < L; ++i) mean_x[i] += rows[t * L + i];
  }
  const double inv_n = 1.0 / static_cast<double>(count);
  for (std::size_t i = 0; i < L; ++i) mean_x[i] *= inv_n;
  for (std::size_t pt = 0; pt < P; ++pt) {
    if (counts[pt] == 0) continue;
    const double w = static_cast<double>(counts[pt]);
    for (std::size_t g = 0; g < G; ++g) mean_h[g] += w * table[pt * G + g];
  }
  for (std::size_t g = 0; g < G; ++g) mean_h[g] *= inv_n;
  for (std::size_t pt = 0; pt < P; ++pt) {
    if (counts[pt] == 0) continue;
    const double w = static_cast<double>(counts[pt]);
    for (std::size_t g = 0; g < G; ++g) {
      dh[pt * G + g] = table[pt * G + g] - mean_h[g];
      m2_h[g] += w * dh[pt * G + g] * dh[pt * G + g];
    }
  }
  std::vector<std::size_t> run(P), slot(P);
  std::vector<double> dx(L * kSortChunk);
  for (std::size_t first = 0; first < count; first += kSortChunk) {
    const std::size_t n = std::min(kSortChunk, count - first);
    std::fill(run.begin(), run.end(), 0);
    for (std::size_t t = 0; t < n; ++t) ++run[pts[first + t]];
    std::size_t next = 0;
    for (std::size_t pt = 0; pt < P; ++pt) {
      slot[pt] = next;
      next += run[pt];
      if (run[pt] % 2 == 1) ++odd_runs;
      if (run[pt] >= 2 && run[pt] % 2 == 0) ++even_runs;
    }
    for (std::size_t t = 0; t < n; ++t) {
      const std::size_t at = slot[pts[first + t]]++;
      for (std::size_t i = 0; i < L; ++i) {
        dx[i * n + at] = rows[(first + t) * L + i] - mean_x[i];
      }
    }
    for (std::size_t i = 0; i < L; ++i) {
      const double* xi = dx.data() + i * n;
      double q0 = 0.0, q1 = 0.0;
      for (std::size_t pt = 0; pt < P; ++pt) {
        if (run[pt] == 0) continue;
        const std::size_t end = slot[pt];
        std::size_t t = end - run[pt];
        double d0 = 0.0, d1 = 0.0;
        for (; t + 2 <= end; t += 2) {
          d0 += xi[t];
          d1 += xi[t + 1];
          q0 += xi[t] * xi[t];
          q1 += xi[t + 1] * xi[t + 1];
        }
        if (t < end) {
          d0 += xi[t];
          q0 += xi[t] * xi[t];
        }
        s1[pt * L + i] += d0 + d1;
      }
      c2[i * L + i] += q0 + q1;
    }
    std::size_t p = 0;
    for (std::size_t i = 0; i < L; ++i) {
      for (std::size_t j = i + 1; j < L; ++j, ++p) {
        const double* xi = dx.data() + i * n;
        const double* xj = dx.data() + j * n;
        double a0 = 0.0, a1 = 0.0, b0 = 0.0, b1 = 0.0, c0 = 0.0, c1 = 0.0;
        double cij = 0.0;
        for (std::size_t pt = 0; pt < P; ++pt) {
          if (run[pt] == 0) continue;
          const std::size_t end = slot[pt];
          std::size_t t = end - run[pt];
          double d0 = 0.0, d1 = 0.0;
          for (; t + 2 <= end; t += 2) {
            const double prod0 = xi[t] * xj[t];
            const double prod1 = xi[t + 1] * xj[t + 1];
            a0 += xi[t] * prod0;
            a1 += xi[t + 1] * prod1;
            b0 += prod0 * xj[t];
            b1 += prod1 * xj[t + 1];
            c0 += prod0 * prod0;
            c1 += prod1 * prod1;
            d0 += prod0;
            d1 += prod1;
          }
          if (t < end) {
            const double prod = xi[t] * xj[t];
            a0 += xi[t] * prod;
            b0 += prod * xj[t];
            c0 += prod * prod;
            d0 += prod;
          }
          s2[pt * pairs + p] += d0 + d1;
          cij += d0 + d1;
        }
        m3_iij[p] += a0 + a1;
        m3_ijj[p] += b0 + b1;
        m4[p] += c0 + c1;
        c2[i * L + j] += cij;
      }
    }
  }
  for (std::size_t i = 0; i < L; ++i) {
    for (std::size_t j = 0; j < i; ++j) c2[i * L + j] = c2[j * L + i];
  }
  detail::block_contract_sums(dh.data(), s1.data(), counts.data(), P, L, G,
                              c_xh.data());
  detail::block_contract_sums(dh.data(), s2.data(), counts.data(), P, pairs,
                              G, m3_ijh.data());
  ByteWriter writer;
  writer.bytes(header.data(), header.size());
  writer.u64(count);
  for (const std::vector<double>* v :
       {&mean_x, &mean_h, &m2_h, &c2, &c_xh, &m3_iij, &m3_ijj, &m4,
        &m3_ijh}) {
    writer.f64s(v->data(), v->size());
  }
  return writer.buffer();
}

TEST(BlockStatsTest, SecondOrderBlockPassMatchesScalarTranscription) {
  // Three sort chunks (512, 512, 3), widths 6 (the round's level count)
  // and 7, 4- and 8-bit S-boxes: runs of every length parity, and
  // one-trace runs in the short last chunk.
  constexpr std::size_t kCount = 1027;
  constexpr std::size_t kHeaderBytes = 4 + 8 + 4 + 8 + 8;  // tag..width
  for (const auto& [spec, num_pts] :
       {std::pair{present_spec(), std::size_t{16}},
        std::pair{aes_spec(), std::size_t{256}}}) {
    for (const std::size_t width : {std::size_t{6}, std::size_t{7}}) {
      SCOPED_TRACE(testing::Message() << num_pts << " plaintexts, width "
                                      << width);
      const Traces t = make_traces(kCount, num_pts, width, 0x2D0 + width);
      StreamingSecondOrderCpa acc(spec, PowerModel::kHammingWeight);
      add_rows(acc, t, 0, kCount);
      const std::vector<std::uint8_t> got = saved_bytes(acc);
      ASSERT_GT(got.size(), kHeaderBytes);
      const std::vector<std::uint8_t> header(got.begin(),
                                             got.begin() + kHeaderBytes);
      std::size_t odd_runs = 0, even_runs = 0;
      const std::vector<std::uint8_t> want = scalar_second_order_state(
          spec, header, t.pts.data(), t.rows.data(), kCount, width, odd_runs,
          even_runs);
      EXPECT_GT(odd_runs, 0u);
      EXPECT_GT(even_runs, 0u);
      EXPECT_TRUE(got == want);
    }
  }
}

// ---- raw kernels vs plain per-output loops --------------------------------

TEST(BlockStatsTest, RawKernelsMatchPlainLoops) {
  // Below the accumulators: each kernel against an obvious loop per
  // output element, written in the summation order the header documents
  // (trace order for histograms, ascending plaintext order for
  // contractions, zero-count rows skipped). The build pins
  // -ffp-contract=off, so the comparison is bit for bit.
  constexpr std::size_t kCount = 700;
  constexpr std::size_t kPts = 16;
  constexpr std::size_t kGuesses = 16;
  constexpr std::size_t kWidth = 3;
  const Traces t = make_traces(kCount, kPts, kWidth, 0xFACE);
  // One plaintext past the traced range: its slot stays empty, and its
  // prediction row is NaN, so a contraction that reads a zero-count row
  // instead of skipping it turns its outputs into NaN.
  constexpr std::size_t kContractPts = kPts + 1;
  std::vector<double> pred(kContractPts * kGuesses);
  std::vector<std::uint8_t> pred_bit(kContractPts * kGuesses);
  Rng rng(0xBEEF);
  for (std::size_t i = 0; i < kPts * kGuesses; ++i) {
    pred[i] = static_cast<double>(rng.below(9));
    pred_bit[i] = static_cast<std::uint8_t>(rng.below(2));
  }
  for (std::size_t g = 0; g < kGuesses; ++g) {
    pred[kPts * kGuesses + g] = std::numeric_limits<double>::quiet_NaN();
    pred_bit[kPts * kGuesses + g] = 1;
  }
  std::vector<double> shifts(kWidth, 1e-13);
  std::vector<double> column(kCount);  // column 0, the scalar traces
  for (std::size_t i = 0; i < kCount; ++i) column[i] = t.rows[i * kWidth];
  const double shift = column[0];

  // Kernel outputs.
  std::vector<std::uint64_t> counts(detail::kBlockPts);
  std::vector<double> sums(detail::kBlockPts * kWidth), sum_sq(kWidth);
  std::vector<std::uint64_t> counts1(detail::kBlockPts);
  std::vector<double> sums1(detail::kBlockPts);
  double sum_sq1 = 0.0;
  std::vector<double> sum_h(kGuesses), sum_h2(kGuesses), r(kWidth * kGuesses);
  std::vector<double> sum0(kGuesses), sum1(kGuesses);
  std::vector<std::uint64_t> cnt0(kGuesses), cnt1(kGuesses);
  detail::block_histogram_scalar(t.pts.data(), column.data(), kCount, shift,
                                 counts1.data(), sums1.data(), &sum_sq1);
  detail::block_histogram_sampled(t.pts.data(), t.rows.data(), kCount, kWidth,
                                  shifts.data(), counts.data(), sums.data(),
                                  sum_sq.data());
  detail::block_contract_counts(pred.data(), counts.data(), kContractPts,
                                kGuesses, sum_h.data(), sum_h2.data());
  detail::block_contract_sums(pred.data(), sums.data(), counts.data(),
                              kContractPts, kWidth, kGuesses, r.data());
  detail::block_contract_dom(pred_bit.data(), counts1.data(), sums1.data(),
                             kContractPts, kGuesses, sum0.data(), sum1.data(),
                             cnt0.data(), cnt1.data());

  // Histograms: one pass over the traces per output element.
  std::vector<std::uint64_t> want_counts(detail::kBlockPts, 0);
  std::vector<double> want_sums1(detail::kBlockPts, 0.0);
  std::vector<double> want_sums(detail::kBlockPts * kWidth, 0.0);
  for (std::size_t p = 0; p < detail::kBlockPts; ++p) {
    for (std::size_t i = 0; i < kCount; ++i) {
      if (t.pts[i] != p) continue;
      ++want_counts[p];
      want_sums1[p] += column[i] - shift;
    }
    for (std::size_t l = 0; l < kWidth; ++l) {
      for (std::size_t i = 0; i < kCount; ++i) {
        if (t.pts[i] != p) continue;
        want_sums[p * kWidth + l] += t.rows[i * kWidth + l] - shifts[l];
      }
    }
  }
  double want_sum_sq1 = 0.0;
  for (std::size_t i = 0; i < kCount; ++i) {
    const double d = column[i] - shift;
    want_sum_sq1 += d * d;
  }
  std::vector<double> want_sum_sq(kWidth, 0.0);
  for (std::size_t l = 0; l < kWidth; ++l) {
    for (std::size_t i = 0; i < kCount; ++i) {
      const double d = t.rows[i * kWidth + l] - shifts[l];
      want_sum_sq[l] += d * d;
    }
  }
  EXPECT_EQ(counts1, want_counts);
  EXPECT_EQ(counts, want_counts);
  expect_same_bits(sums1, want_sums1);
  expect_same_bits({sum_sq1}, {want_sum_sq1});
  expect_same_bits(sums, want_sums);
  expect_same_bits(sum_sq, want_sum_sq);

  // Contractions: one pass over the non-empty plaintexts per output.
  std::vector<double> want_h(kGuesses), want_h2(kGuesses);
  std::vector<double> want_r(kWidth * kGuesses);
  std::vector<double> want_sum0(kGuesses), want_sum1(kGuesses);
  std::vector<std::uint64_t> want_cnt0(kGuesses), want_cnt1(kGuesses);
  for (std::size_t g = 0; g < kGuesses; ++g) {
    double h1 = 0.0, h2 = 0.0, s0 = 0.0, s1 = 0.0;
    std::uint64_t c0 = 0, c1 = 0;
    for (std::size_t p = 0; p < kContractPts; ++p) {
      if (counts[p] == 0) continue;
      const double h = pred[p * kGuesses + g];
      const double w = static_cast<double>(counts[p]) * h;
      h1 += w;
      h2 += w * h;
      if (pred_bit[p * kGuesses + g] != 0) {
        s1 += sums1[p];
        c1 += counts[p];
      } else {
        s0 += sums1[p];
        c0 += counts[p];
      }
    }
    want_h[g] = h1;
    want_h2[g] = h2;
    want_sum0[g] = s0;
    want_sum1[g] = s1;
    want_cnt0[g] = c0;
    want_cnt1[g] = c1;
    for (std::size_t l = 0; l < kWidth; ++l) {
      double acc = 0.0;
      for (std::size_t p = 0; p < kContractPts; ++p) {
        if (counts[p] == 0) continue;
        acc += sums[p * kWidth + l] * pred[p * kGuesses + g];
      }
      want_r[l * kGuesses + g] = acc;
    }
  }
  expect_same_bits(sum_h, want_h);
  expect_same_bits(sum_h2, want_h2);
  expect_same_bits(r, want_r);
  expect_same_bits(sum0, want_sum0);
  expect_same_bits(sum1, want_sum1);
  EXPECT_EQ(cnt0, want_cnt0);
  EXPECT_EQ(cnt1, want_cnt1);
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
  check_persistence_shape<StreamingCpa>(t, [] {
    return StreamingCpa::time_resolved(present_spec(),
                                       PowerModel::kHammingWeight, kWidth);
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

  StreamingCpa multi = StreamingCpa::time_resolved(
      present_spec(), PowerModel::kHammingWeight, 1);
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
