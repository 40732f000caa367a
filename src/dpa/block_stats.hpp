// Block-factored sufficient statistics for the streaming distinguishers.
//
// A per-trace Welford update does O(num_guesses) work per trace — a
// dependent divide plus a 2^in_bits guess loop for every sample. But a
// ShardBlock's contribution to every per-guess moment factors through a
// tiny per-plaintext histogram: the prediction h[pt][g] only depends on
// the plaintext, so
//
//   Σ_i h[pt_i][g]          = Σ_p n_p · h[p][g]
//   Σ_i h[pt_i][g]·x_i      = Σ_p S_p · h[p][g]      (S_p = Σ_{i: pt_i=p} x_i)
//
// One O(count) histogram pass with no guess loop, then one dense
// contraction against the shared prediction table per block — a G×P GEMV
// for scalar CPA, a G×P · P×L GEMM for time-resolved CPA, partitioned
// counts/sums for DoM. The kernels below are those two stages. The
// scalar histogram does not depend on the distinguisher, so it is a
// value of its own (BlockHistogram): the engine bins every attacked
// instance of a shard in one pass (ShardFeed, engine/shard_reduce.hpp),
// with exactly this kernel's additions per instance, and CPA, DoM and
// MTD all contract the instance's one result.
// Second-order CPA (dpa/second_order.hpp) is a contract_sums client too:
// it bins per-plaintext level deviations and level-pair products itself
// and contracts them against its block-centred prediction table.
//
// Numerics: samples are accumulated relative to a caller-chosen shift
// (the block's first sample) so the per-plaintext sums carry the
// ~1e-15 J data-dependent variation instead of the ~1e-13 J energy
// offset; co-moments are shift-invariant and the CPA accumulator converts
// the block sums back to Welford form before folding them in (see
// streaming.cpp), which keeps the scores within ~1e-13 of the two-pass
// Pearson formulation. DoM partitions the same shifted sums and adds
// cnt·shift back per partition, so its state stays raw partition sums.
//
// Determinism: every kernel fixes the floating-point summation order per
// output element — histogram passes accumulate sequentially in trace
// order, contractions keep the plaintext loop outermost (ascending) so
// each output element's addition chain is the same however the inner
// guess/level loop is vectorized — and uses plain mul+add (never FMA; the
// build pins -ffp-contract=off). Block boundaries are the engine's fixed
// shard layout, making the block-factored scores bit-identical across
// num_threads and across machines.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sable {

namespace detail {

// Histogram slots are always kBlockPts (the full uint8_t range), not
// num_plaintexts: any sub-plaintext byte lands in a valid slot, so the
// per-trace range check hoists out of the hot loop — the accumulator
// validates once per block that slots at and beyond num_plaintexts
// stayed empty.
inline constexpr std::size_t kBlockPts = 256;

/// The hoisted form of the per-trace range check: a histogram pass binned
/// every sub-plaintext byte into one of the kBlockPts slots, so one sweep
/// over the slots at and past num_plaintexts validates the whole block
/// (throws InvalidArgument on a non-empty one).
void require_block_pts(const std::uint64_t* counts,
                       std::size_t num_plaintexts);

/// Scalar histogram pass: zeroes counts[256]/sums[256], then for every
/// trace i adds 1 to counts[pts[i]] and (samples[i] - shift) to
/// sums[pts[i]], and accumulates Σ (samples[i] - shift)² into *sum_sq —
/// all sequentially in trace order.
void block_histogram_scalar(const std::uint8_t* pts, const double* samples,
                            std::size_t count, double shift,
                            std::uint64_t* counts, double* sums,
                            double* sum_sq);

/// Sampled-row histogram pass: counts as above; sums is [pt*width + l]
/// accumulating (row[l] - shifts[l]); sum_sq[l] gets the per-column
/// Σ (row[l] - shifts[l])². Column accumulators are independent, so the
/// inner level loop vectorizes without reordering any addition chain.
///
/// At width 1 it bins bit-equal to block_histogram_scalar, but both
/// kernels stay: its runtime level loop and in-memory sum_sq cost 3.0–3.3
/// ns/trace there against the scalar kernel's 1.1–1.2 (g++ 12 -O2, one
/// 4096-trace 4-bit block, pinned to one core of a Xeon VM, best of 3000
/// calls, three runs). So the CPA accumulator bins one column with the
/// scalar kernel and wider rows with this one.
void block_histogram_sampled(const std::uint8_t* pts, const double* rows,
                             std::size_t count, std::size_t width,
                             const double* shifts, std::uint64_t* counts,
                             double* sums, double* sum_sq);

/// Count contraction: with w = counts[p]·pred[p*G+g], sum_h[g] = Σ_p w
/// and sum_h2[g] = Σ_p w·pred[p*G+g], zeroing the outputs first and
/// skipping zero-count rows. The per-guess prediction moments of the
/// whole block, as one GEMV.
void block_contract_counts(const double* pred, const std::uint64_t* counts,
                           std::size_t num_pts, std::size_t num_guesses,
                           double* sum_h, double* sum_h2);

/// Sum contraction (the co-moment GEMM): r[l*G+g] = Σ_p sums[p*width+l]
/// · pred[p*G+g], zeroing r first; scalar CPA is the width-1 case.
/// Plaintext rows with zero count are skipped (their sums are exact
/// zeros), which keeps the cost O(min(count, P) · width · G).
void block_contract_sums(const double* pred, const double* sums,
                         const std::uint64_t* counts, std::size_t num_pts,
                         std::size_t width, std::size_t num_guesses,
                         double* r);

/// DoM contraction: partitions the block's per-plaintext counts/sums by
/// the predicted bit, accumulating both partitions directly (branchless
/// 0/1 weights, no end-of-loop subtraction). Outputs are zeroed first.
void block_contract_dom(const std::uint8_t* pred_bit,
                        const std::uint64_t* counts, const double* sums,
                        std::size_t num_pts, std::size_t num_guesses,
                        double* sum0, double* sum1, std::uint64_t* cnt0,
                        std::uint64_t* cnt1);

}  // namespace detail

/// One scalar block's per-plaintext histogram: the only input the scalar
/// distinguishers' contractions read. counts/sums/sum_sq are the
/// histogram_scalar outputs relative to `shift` over `count` traces.
/// ShardFeed builds one per attacked instance per shard, all of a shard's
/// in one pass, and every scalar distinguisher on that instance (CPA,
/// DoM, MTD) contracts it, so a shard is binned once, not once per
/// distinguisher.
struct BlockHistogram {
  std::uint64_t counts[detail::kBlockPts];
  double sums[detail::kBlockPts];
  double sum_sq = 0.0;
  double shift = 0.0;
  std::size_t count = 0;
};

/// Bins `count` traces into `hist` with block_histogram_scalar, shifted
/// by the block's first sample (0 for an empty block): the per-plaintext
/// sums then carry the ~1e-15 J data-dependent variation, not the
/// ~1e-13 J energy offset.
void build_block_histogram(const std::uint8_t* pts, const double* samples,
                           std::size_t count, BlockHistogram& hist);

}  // namespace sable
