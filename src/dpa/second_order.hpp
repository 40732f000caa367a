// Second-order (centered-product) CPA over time-resolved traces.
//
// First-order CPA correlates one sample against the predicted leakage.
// The second-order attack correlates the *centered product* of two sample
// columns — here two logic levels of a `cycle_sampled` row — with the
// prediction: p_t = (x_i,t − μ_i)(x_j,t − μ_j), score = |ρ(p, h)| per
// level pair, max-combined per guess. This is the stronger distinguisher
// class a constant-power claim must survive beyond first-order CPA/DoM
// (the companion VLSI-flow paper's argument), and the classic attack on
// masked implementations whose shares leak at two distinct times.
//
// One pass, exactly: the retained-trace formulation needs the full-campaign
// column means before it can form a single product, so a naive streaming
// port would be two-pass. Instead the accumulator keeps exact central
// co-moments up to fourth order — per column mean/M2, per pair C_ij,
// M3_iij, M3_ijj, M4_iijj, per guess mean/M2 of the prediction, and the
// mixed third moment M3_ijh per (pair, guess) — formed per block around
// the block's means and combined with pairwise (Chan/Pébay-style) update
// formulas. From those, with full-campaign means μ and n traces:
//
//   Cov(p, h)  = M3_ijh / n
//   Var(p)     = (M4_iijj − C_ij² / n) / n
//   Var(h)     = M2_h / n
//   ρ(p, h)    = M3_ijh / sqrt((M4_iijj − C_ij²/n) · M2_h)
//
// so the streamed scores equal the retained-trace centered-product
// reference to ~1e-13 while holding O(levels² · guesses) state and no
// trace. merge() folds a disjoint trace subset exactly (same pairwise
// formulas), which makes the accumulator shardable under the engine's
// fixed-shape merge tree — bit-identical results for any thread count.
//
// Block cost: the guess-dependent sums factor through the plaintext,
// because the block-centred prediction dh[pt][g] = h[pt][g] − mean_h[g]
// depends on the trace only through its sub-plaintext:
//
//   c_xh[i][g]   = Σ_pt S1[pt][i] · dh[pt][g]    S1[pt][i] = Σ_{t∈pt} dx_i
//   m3_ijh[p][g] = Σ_pt S2[pt][p] · dh[pt][g]    S2[pt][p] = Σ_{t∈pt} dx_i·dx_j
//
// So a trace costs O(levels²) with no guess loop: the guess-free sums
// (C, M3_iij, M3_ijj, M4) plus the two per-plaintext bins. The block's
// centred rows are counting-sorted by plaintext first (in fixed,
// cache-sized chunks), which turns each bin into a sum over contiguous
// runs. A block then contracts the bins against dh once, through
// block_contract_sums of dpa/block_stats.hpp —
// O(min(count, plaintexts) · (levels + pairs) · guesses).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/leakage.hpp"
#include "dpa/attack.hpp"

namespace sable {

class ByteReader;
class ByteWriter;

/// Second-order scores: per guess the largest |ρ| over all level pairs,
/// plus the (i, j) pair where the winning guess peaked — the two moments
/// in time an analyst would combine on an oscilloscope.
struct SecondOrderAttackResult {
  AttackResult combined;
  std::size_t best_pair_first = 0;
  std::size_t best_pair_second = 0;
};

/// One-pass second-order CPA accumulator over rows of `width` per-level
/// samples. The width is fixed by the first block (lazily, so callers
/// need not thread the target's level count to the constructor) and must
/// be at least 2 — a centered product needs two distinct columns.
class StreamingSecondOrderCpa {
 public:
  StreamingSecondOrderCpa(const SboxSpec& spec, PowerModel model,
                          std::size_t bit = 0);

  /// Consumes `count` traces: `pts` holds the attacked instance's
  /// sub-plaintexts, `rows` holds count rows of `width` samples. Central
  /// sums are formed block-locally (two passes over the block, which is
  /// already resident) and folded in exactly, so feeding one block or
  /// many is numerically equivalent. A block with an out-of-range
  /// plaintext or a mismatched width throws before any state changes —
  /// including the lazily fixed width.
  void add_block(const std::uint8_t* pts, const double* rows,
                 std::size_t count, std::size_t width);

  /// Folds `other` — an accumulator over a disjoint trace subset with the
  /// same spec/model/bit and width — into this one, exactly (pairwise
  /// central co-moment combination up to fourth order).
  void merge(const StreamingSecondOrderCpa& other);

  std::size_t count() const { return sums_.n; }
  /// Samples per row; 0 until the first block fixes it.
  std::size_t width() const { return width_; }
  std::size_t num_guesses() const { return num_guesses_; }

  /// Scores over the traces consumed so far (needs at least two).
  SecondOrderAttackResult result() const;

  /// Bit-exact tagged (de)serialization (io/serial.hpp; the contract
  /// documented in streaming.hpp). A width-0 (never-fed) accumulator
  /// round trips to a width-0 accumulator.
  void save(ByteWriter& writer) const;
  void load(ByteReader& reader);

 private:
  // Central co-moment sums of one trace subset. Pair p runs over i < j in
  // lexicographic order; c2 is the full symmetric width×width co-moment
  // matrix (diagonal = per-column M2).
  struct Sums {
    std::size_t n = 0;
    std::vector<double> mean_x;   // [width]
    std::vector<double> mean_h;   // [guesses]
    std::vector<double> m2_h;     // [guesses]
    std::vector<double> c2;       // [width * width]
    std::vector<double> c_xh;     // [width * guesses]
    std::vector<double> m3_iij;   // [pairs]
    std::vector<double> m3_ijj;   // [pairs]
    std::vector<double> m4;       // [pairs]  Σ (dx_i dx_j)²
    std::vector<double> m3_ijh;   // [pairs * guesses]
  };

  // Per-thread working set of block_sums and combine (second_order.cpp).
  struct Scratch;
  static Scratch& scratch();

  // Checks a block or peer width against the fixed one (or the >= 2 rule
  // while unfixed) without fixing it; ensure_width also fixes it.
  void require_width(std::size_t width) const;
  void ensure_width(std::size_t width);
  // The central sums of one block of `width`-sample rows, in the calling
  // thread's scratch. Mutates no accumulator state, so a bad block throws
  // before add_block fixes the width or folds anything in.
  const Sums& block_sums(const std::uint8_t* pts, const double* rows,
                         std::size_t count, std::size_t width) const;
  // Folds B into A: exact pairwise combination, highest order first so
  // every update reads pre-merge lower-order values.
  void combine(Sums& a, const Sums& b) const;

  std::size_t num_guesses_;
  std::size_t num_plaintexts_;
  PowerModel model_;
  std::size_t bit_;
  std::shared_ptr<const std::vector<double>> predictions_;
  std::size_t width_ = 0;
  std::size_t num_pairs_ = 0;
  Sums sums_;
};

}  // namespace sable
